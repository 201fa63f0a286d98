"""Closed-loop benchmark of the selfnorm command-line program.

    python3 perfbench/run.py --workload mc-wide --seed 1 --seconds 30 --trace 0

Run it from a source checkout: it imports the program from ``src/`` and
installs nothing.  One client runs one command at a time, each in a fresh
interpreter through the same entry point as the ``selfnorm`` console script,
with ``--seed`` taken from the benchmark's seed and the CLI's default worker
count.  Passes over the workload's commands repeat until ``--seconds`` have
passed; each metric is the median over passes.

With ``--trace 0`` the result holds the end-to-end metrics: ``wall_s`` (one
pass, spawn to exit), ``step_rate`` (sum of reps * n over the pass, divided by
``wall_s``), ``peak_rss_mb`` (largest per-command peak RSS, from ``wait4`` on
that child) and ``setup_s`` (median of fresh ``--version`` runs).  With
``--trace 1`` untraced and traced passes alternate, commands run under
``trace_cli.py``, and the result holds the per-layer metrics.

Every command's output is checked: exit code 0, no traceback or ``error:``
line on stderr, the expected number of CSV rows, finite numbers, no
``satisfied`` false, and the same bytes in every pass, traced or not.  The
last stdout line is the JSON result; the line before it is provenance.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_CLI = HERE / "trace_cli.py"
REFERENCE_DIGESTS = HERE / "reference_digests.json"
# what the installed ``selfnorm`` console script runs
ENTRY = "import sys; from selfnorm.cli import main; sys.exit(main())"
SETUP_RUNS_PER_PASS = 3
DEADLINE_S = 165.0  # a run must end within 180 s; no command outlives this


@dataclass(frozen=True)
class Command:
    """One CLI invocation (without ``--seed``) and what its output must hold."""

    args: tuple[str, ...]
    reps: int
    n: int
    rows: int
    nan_cells: frozenset = frozenset()  # (row, column) cells NaN by definition

    def argv(self, seed: int) -> list[str]:
        return [*self.args, "--seed", str(seed)]


def _verify(inequality: str, n: int, reps: int, rows: int, *extra: str) -> Command:
    args = ("verify", inequality, *extra, "--n", str(n), "--reps", str(reps))
    return Command(args, reps, n, rows)


def _simulate(process: str, n: int, nan_cells=frozenset()) -> Command:
    return Command(("simulate", process, "--n", str(n)), 1, n, n + 1, frozenset(nan_cells))


# Sizes keep one pass near 5 s on a 2-core machine.  mc-wide: many short
# replicates, so building Philox streams dominates and the per-replicate
# bounds/event path runs.  mc-long: few long replicates, so the per-step
# kernels and the B x 2n uniform blocks dominate; supermartingale simulates
# the same finals 12 times.  trace: scalar step loops and CSV output only,
# bypassing montecarlo and the block RNG.
WORKLOADS = {
    "mc-wide": (
        _verify("idla-scaled", 100, 80_000, 4),
        _verify("ar-estimator", 200, 40_000, 4),
        _verify("learn-phi", 1_000, 5_000, 1),
    ),
    "mc-long": (
        _verify("learn-threshold", 2_500, 8_192, 1),
        _verify("supermartingale", 1_000, 4_096, 12, "--process", "idla"),
    ),
    "trace": (
        # theta_hat at step 0 is 0/0: no data yet
        _simulate("ar1", 100_000, {(0, "theta_hat")}),
        _simulate("idla", 100_000),
        _simulate("learn", 50_000),
    ),
}


@dataclass
class Run:
    """One finished child process; its stdout stays in a file."""

    wall_s: float
    rss_mb: float
    code: int
    stderr: str
    stdout: Path
    out_bytes: int
    digest: str


def spawn(argv: list[str], stdout: Path, env: dict, deadline: float) -> Run:
    """Run argv to completion with stdout in a file; kill it at ``deadline``.

    Peak RSS comes from ``wait4`` on this child alone: RUSAGE_CHILDREN is a
    high-water mark over every child so far and would hide smaller ones.  The
    child starts as a copy of this process, so its figure is at least this
    process's own peak; outputs are therefore checked from the file and never
    held in memory here.
    """
    err_path = stdout.with_suffix(".err")
    with open(stdout, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env, cwd=ROOT
        )
        timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(stdout, "rb") as fh:
        digest = hashlib.file_digest(fh, "sha256").hexdigest()
    return Run(
        wall_s=wall,
        rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        code=proc.returncode,
        stderr=err_path.read_text(errors="replace"),
        stdout=stdout,
        out_bytes=stdout.stat().st_size,
        digest=digest,
    )


def problems(command: Command, run: Run, limit: int = 5) -> list[str]:
    """Why the command's run is wrong; empty when it is correct."""
    found = []
    if run.code != 0:
        found.append(f"exit code {run.code}")
    err_lines = run.stderr.splitlines()
    if "Traceback" in run.stderr or any(line.startswith("error:") for line in err_lines):
        found.append("stderr: " + err_lines[-1])
    with open(run.stdout, encoding="utf-8", newline="") as fh:
        try:
            found += _row_problems(command, csv.reader(fh), limit)
        except (ValueError, csv.Error) as exc:  # undecodable bytes or bad quoting
            found.append(f"unparsable output: {exc}")
    return found


def _row_problems(command: Command, reader, limit: int) -> list[str]:
    found = []
    header = next(reader, None)
    if header is None:
        return ["no output"]
    rows = 0
    for i, row in enumerate(reader):
        rows += 1
        if len(found) >= limit:
            continue
        if len(row) != len(header):
            found.append(f"row {i}: {len(row)} fields, header has {len(header)}")
            continue
        for col, value in zip(header, row):
            if col == "satisfied":
                if value != "True":
                    found.append(f"row {i}: satisfied={value}")
                continue
            try:
                number = float(value)
            except ValueError:
                continue
            if not math.isfinite(number) and (i, col) not in command.nan_cells:
                found.append(f"row {i}: {col}={value}")
    if rows != command.rows:
        found.append(f"{rows} rows, expected {command.rows}")
    return found


def self_times(spans: list) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals.

    Children in pool threads overlap one another; counting their union, and
    only the part inside the parent, keeps self time non-negative.
    """
    children = defaultdict(list)
    for span in spans:
        children[span[1]].append((span[4], span[5]))
    own = {}
    for span_id, _, _, _, start, end, _ in spans:
        covered, reach = 0.0, start
        for lo, hi in sorted(children[span_id]):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        own[span_id] = (end - start) - covered
    return own


LAYER_METRICS = {
    "processes.uniform_rows.self_s": "s",
    "processes.uniform_rows.streams": "count",
    "processes.uniform_rows.mb": "MB",
    "processes.finals.self_s": "s",
    "processes.finals.steps": "count",
    "processes.simulate.self_s": "s",
    "processes.simulate.steps": "count",
    "processes.trace_to_csv.self_s": "s",
    "processes.trace_to_csv.bytes": "B",
    "martingale.accumulate.self_s": "s",
    "martingale.accumulate.steps": "count",
    "montecarlo.simulate_finals.calls": "count",
    "montecarlo.simulate_finals.useful_ratio": "ratio",
    "montecarlo.simulate_finals.self_s": "s",
    "montecarlo.chunks": "count",
    "montecarlo.workers": "count",
    "montecarlo.parallel_busy_ratio": "ratio",
    "montecarlo.event_indicator.self_s": "s",
    "montecarlo.reduce.self_s": "s",
    "montecarlo.nonfinite": "count",
    "bounds.calls": "count",
    "bounds.self_s": "s",
    "cli.main.self_s": "s",
    "cli.output_bytes": "B",
    "cli.output_changed": "count",
    "cli.output_compared": "count",
    "trace_overhead": "ratio",
    "fail_ratio": "ratio",
}


def layer_metrics(docs: list[dict]) -> dict[str, float]:
    """Per-layer figures of one traced pass, from each command's span file."""
    total = defaultdict(float)
    distinct_keys = busy = capacity = 0.0
    for doc in docs:
        spans = doc["spans"]
        own = self_times(spans)
        kernels = defaultdict(list)
        keys = set()
        for span in spans:
            span_id, parent, name, _, start, end, counts = span
            total[f"{name}.self_s"] += own[span_id]
            total[f"{name}.calls"] += 1
            for key, value in (counts or {}).items():
                if key not in ("key", "workers"):  # per-call facts, used below
                    total[f"{name}.{key}"] += value
            if name == "processes.finals":
                kernels[parent].append(span)
            if name == "montecarlo.simulate_finals":
                keys.add(counts["key"])
        distinct_keys += len(keys)
        total["processes.uniform_rows.streams"] += doc["philox"]
        for span in spans:
            if span[2] != "montecarlo.simulate_finals":
                continue
            workers = span[6]["workers"]
            total["montecarlo.workers"] = max(total["montecarlo.workers"], workers)
            total["montecarlo.chunks"] += len(kernels[span[0]])
            busy += sum(k[5] - k[4] for k in kernels[span[0]])
            capacity += (span[5] - span[4]) * workers
    calls = total["montecarlo.simulate_finals.calls"]
    total["montecarlo.simulate_finals.useful_ratio"] = distinct_keys / calls if calls else 0.0
    total["montecarlo.parallel_busy_ratio"] = busy / capacity if capacity else 0.0
    total["montecarlo.nonfinite"] = total.pop("montecarlo.simulate_finals.nonfinite", 0.0)
    return total


def _reference(seed: int) -> dict[str, str]:
    if not REFERENCE_DIGESTS.exists():
        return {}
    return json.loads(REFERENCE_DIGESTS.read_text()).get(str(seed), {})


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _provenance(seed: int) -> dict:
    sys.path.insert(0, str(SRC))
    import numpy

    try:
        from selfnorm.montecarlo import CHUNK
    except ImportError:
        CHUNK = None
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = done.stdout.strip() or commit
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "workers": os.cpu_count(),  # the CLI default; commands do not override it
        "chunk": CHUNK,
        "commit": commit,
        "seed": seed,
    }


class Bench:
    """One benchmark run: its commands, checks and collected figures."""

    def __init__(self, commands, seed: int, workdir: Path):
        self.commands = commands
        self.seed = seed
        self.workdir = workdir
        self.env = _child_env()
        self.deadline = time.monotonic() + DEADLINE_S
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}
        self.stdout = workdir / "stdout"

    def _spawn(self, argv: list[str]) -> Run:
        return spawn(argv, self.stdout, self.env, self.deadline)

    def _check(self, label: str, command: Command | None, run: Run) -> None:
        self.attempted += 1
        first = self.digests.setdefault(label, run.digest)
        if first != run.digest:
            found = ["output differs from the first run of this command"]
        elif command is None:
            found = [] if run.code == 0 and run.out_bytes else [f"exit code {run.code}"]
        else:
            found = problems(command, run)
        if found:
            self.failures.append(f"{label}: {'; '.join(found)}")

    def setup_runs(self, count: int) -> list[float]:
        """Wall times of fresh ``--version`` runs: interpreter start, imports
        and parser construction."""
        walls = []
        for _ in range(count):
            run = self._spawn([sys.executable, "-c", ENTRY, "--version"])
            self._check("--version", None, run)
            walls.append(run.wall_s)
        return walls

    def run_pass(self, traced: bool):
        runs, docs = [], []
        spans_path = self.workdir / "spans.json"
        for i, command in enumerate(self.commands):
            argv = command.argv(self.seed)
            if traced:
                prefix = [sys.executable, str(TRACE_CLI), str(spans_path), str(i)]
            else:
                prefix = [sys.executable, "-c", ENTRY]
            run = self._spawn(prefix + argv)
            self._check(" ".join(argv), command, run)
            if traced and spans_path.exists():
                docs.append(json.loads(spans_path.read_text()))
                spans_path.unlink()
            runs.append(run)
        return runs, docs

    def measure(self, seconds: float, trace: bool) -> dict:
        self._spawn([sys.executable, "-c", ENTRY, "--version"])  # compiles bytecode
        setup, plain, traced = [], [], []
        start = time.monotonic()
        while True:
            pass_start = time.monotonic()
            plain.append(self.run_pass(traced=False)[0])
            if trace:
                traced.append(self.run_pass(traced=True))
            else:
                # probes spread over the run, so a slow spell of the machine
                # weighs on set-up time no more than on the passes
                setup += self.setup_runs(SETUP_RUNS_PER_PASS)
            now = time.monotonic()
            if now - start >= seconds or now + (now - pass_start) > self.deadline:
                break
        if trace:
            return self._layer_result(plain, traced)
        return self._end_to_end_result(plain, setup)

    def _end_to_end_result(self, passes, setup: list[float]) -> dict:
        steps = sum(c.reps * c.n for c in self.commands)
        walls = [sum(r.wall_s for r in runs) for runs in passes]
        rss = [max(r.rss_mb for r in runs) for runs in passes]
        return {
            "wall_s": (statistics.median(walls), "s"),
            "step_rate": (statistics.median(steps / w for w in walls), "steps/s"),
            "peak_rss_mb": (statistics.median(rss), "MB"),
            "setup_s": (statistics.median(setup), "s"),
        }

    def _layer_result(self, plain, traced) -> dict:
        per_pass = [layer_metrics(docs) for _, docs in traced]
        values = {
            name: statistics.median(m.get(name, 0.0) for m in per_pass)
            for name in LAYER_METRICS
        }
        plain_wall = statistics.median(sum(r.wall_s for r in runs) for runs in plain)
        traced_wall = statistics.median(sum(r.wall_s for r in runs) for runs, _ in traced)
        reference = _reference(self.seed)
        argvs = [" ".join(c.argv(self.seed)) for c in self.commands]
        compared = [a for a in argvs if a in reference]
        values.update(
            {
                "cli.output_bytes": sum(r.out_bytes for r in plain[0]),
                "cli.output_changed": sum(reference[a] != self.digests[a] for a in compared),
                "cli.output_compared": len(compared),
                "trace_overhead": traced_wall / plain_wall - 1.0,
                "fail_ratio": len(self.failures) / self.attempted,
            }
        )
        return {name: (values[name], unit) for name, unit in LAYER_METRICS.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "selfnorm" / "cli.py").is_file():
        print(f"error: no selfnorm sources under {SRC}", file=sys.stderr)
        return 2

    load_start = os.getloadavg()[0]
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        bench = Bench(WORKLOADS[args.workload], args.seed, workdir)
        metrics = bench.measure(args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    provenance = _provenance(args.seed)
    provenance.update({"load_1m_start": load_start, "load_1m_end": os.getloadavg()[0]})
    for failure in bench.failures:
        print(f"failed: {failure}", file=sys.stderr)
    print(json.dumps({"provenance": provenance, "workload": args.workload}))
    result = {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
