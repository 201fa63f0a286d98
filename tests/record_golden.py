"""The golden-output corpus: fixed command lines whose exit code, stdout and
stderr are held byte-identical by ``tests/test_golden.py``.

    PYTHONPATH=src python tests/record_golden.py

runs every command in process through ``cli.main`` and writes the SHA-256
of each one's (exit code, stdout, stderr) to ``tests/golden_digests.json``.
A change that moves any output re-records the file in the same change and
names each changed digest, with its reason, in CHANGES.md;

    PYTHONPATH=src python tests/record_golden.py --diff

writes nothing and prints that list: each command whose digest differs from
the file, then each one added to or dropped from the corpus.  It exits 1
when it lists any command and 0 when it prints "no differences".
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from unittest import mock

from selfnorm import cli
from selfnorm.montecarlo import CHECKS
from selfnorm.processes import PROCESSES, TILE

DIGESTS = Path(__file__).with_name("golden_digests.json")

SEED_ENV = "SELFNORM_SEED"

# argparse wraps help text at the terminal width, which it reads from COLUMNS
COLUMNS = "80"


@dataclass(frozen=True)
class Case:
    """One command line, with SELFNORM_SEED set to env_seed (unset when
    None) and, when config is given, a --config file holding it as JSON."""

    argv: tuple[str, ...]
    env_seed: str | None = None
    config: dict | None = None

    @property
    def key(self) -> str:
        words = list(self.argv)
        if self.config is not None:
            words += ["--config", json.dumps(self.config, sort_keys=True)]
        env = [] if self.env_seed is None else [f"{SEED_ENV}={self.env_seed!r}"]
        return " ".join(env + words)


def _verify_cases() -> list[Case]:
    cases = []
    for check_id, check in CHECKS.items():
        processes = [None, *sorted(PROCESSES)] if check.any_process else [None]
        for process in processes:
            # a check that simulates nothing has no --n, --reps or --seed
            size = [] if check.process is None else ["--n", "30", "--reps", "2000", "--seed", "3"]
            argv = ["verify", check_id, *size]
            argv += [] if process is None else ["--process", process]
            cases += [Case((*argv, "--format", fmt)) for fmt in ("csv", "json")]
    return cases


def _refused_process_cases() -> list[Case]:
    # an entry that fixes its process offers no other to --process, and one
    # that simulates nothing has no --process
    return [
        Case(("verify", check_id, "--process", process, "--n", "30", "--reps", "200"))
        for check_id, check in CHECKS.items()
        if not check.any_process
        for process in sorted(PROCESSES)
        if process != check.process
    ]


def _refused_flag_cases() -> list[Case]:
    # --reps where nothing is simulated, --x-grid where a check takes none,
    # flags a subcommand, process or verify id does not read, another
    # process's field, and a prefix of a flag's name
    return [
        Case(("hermite", "--a", "9/16")),
        Case(("simulate", "idla", "--n", "3", "--se", "4")),
        Case(("simulate", "idla", "--n", "3", "--p", "0.3")),
        Case(("verify", "hermite", "--delta", "0.2")),
        Case(("verify", "kearns-saul", "--a", "0.7")),
        Case(("verify", "weighted-tail", "--a-grid", "0.5")),
        Case(("verify", "ar-laplace", "--alpha", "0.3")),
        Case(("verify", "idla-scaled", "--p", "0.3")),
        Case(("verify", "supermartingale", "--a", "1/3")),
        Case(("verify", "weighted-tail", "--process", "idla", "--p", "0.3")),
        Case(("verify", "weighted-tail", "--process", "idla"), config={"p": 0.3}),
        Case(("verify", "kearns-saul"), config={"a": 0.7}),
        Case(("hermite", "--reps", "200")),
        Case(("weights", "--reps", "3")),
        Case(("hermite", "--seed", "3")),
        Case(("simulate", "idla", "--n", "3", "--x-grid", "1,2")),
        Case(("learning-table", "--alpha", "0.1")),
        *(
            Case(("verify", check_id, "--reps", "200"))
            for check_id, check in CHECKS.items()
            if check.process is None
        ),
        *(
            Case(("verify", check_id, "--x-grid", "1,2", "--n", "30"))
            for check_id, check in CHECKS.items()
            if "x_grid" not in check.flags
        ),
    ]


def _simulate_cases() -> list[Case]:
    # n crosses the stream's tiles (TILE) and the CLI's write blocks, and
    # 2 * WRITE_ROWS + 1 takes three blocks, the last of one row
    write = cli.WRITE_ROWS
    ns = {1, TILE - 1, TILE, TILE + 1, write - 1, write, write + 1, 2 * write + 1}
    return [
        Case(("simulate", process, "--n", str(n), "--seed", "3", "--format", fmt))
        for process in sorted(PROCESSES)
        for n in sorted(ns)
        for fmt in ("csv", "json")
    ]


def _help_cases() -> list[Case]:
    # the help of the program, of simulate and verify, and of every leaf
    parents = [(), ("simulate",), ("verify",)]
    leaves = [
        ("weights",),
        ("hermite",),
        ("learning-table",),
        *(("simulate", process) for process in sorted(PROCESSES)),
        *(("verify", check_id) for check_id in CHECKS),
    ]
    return [Case((*path, "--help")) for path in parents + leaves]


CASES = [
    *_verify_cases(),
    Case(("hermite",)),
    Case(("verify", "hermite")),
    Case(("weights", "--table1")),
    Case(("learning-table",)),
    # 600 uniform columns take three tiles, the last partial, and 130
    # replicates end 2 into their third group of 64
    Case(("verify", "learn-threshold", "--n", "300", "--reps", "130", "--seed", "3")),
    # the weighted bound does not apply past sqrt(a d(a)): its column is
    # empty on that row, and the header is the same in either grid order
    *(
        Case(("verify", "ar-estimator", "--n", "30", "--reps", "200", "--x-grid", grid,
              "--seed", "3", "--format", fmt))
        for grid in ("100,0.01", "0.01,100")
        for fmt in ("csv", "json")
    ),
    # the BT2008 bound applies only where c(a) = 1, at a = 9/16
    *(
        Case(("verify", "weighted-tail", "--a", "9/16", "--n", "30", "--reps", "2000",
              "--seed", "3", "--format", fmt))
        for fmt in ("csv", "json")
    ),
    *_simulate_cases(),
    # every bad input exits 2 with one error: line
    *_refused_process_cases(),
    *_refused_flag_cases(),
    Case(("simulate", "idla", "--n", "3", "--seed", "abc")),
    Case(("simulate", "idla", "--n", "3", "--seed", "-1")),
    Case(("simulate", "idla", "--n", "3", "--seed", str(2**63))),
    Case(("simulate", "idla", "--n", "3"), env_seed="abc"),
    Case(("simulate", "idla", "--n", "3"), env_seed=""),
    Case(("simulate", "idla", "--n", "3"), env_seed=str(2**64 - 1)),
    # a command that draws nothing reads no seed: the variable is ignored,
    # and the JSON header's seed is null
    Case(("weights",), env_seed="abc"),
    Case(("weights", "--table1", "--format", "json")),
    Case(("simulate", "idla", "--n", "3"), config={"n": "ten"}),
    Case(("simulate", "idla", "--n", "3"), config={"format": "xml"}),
    Case(("weights",), config={"table1": "yes"}),
    # Table 1 is a fixed grid of a, which --a would replace
    Case(("weights", "--table1", "--a", "0.3")),
    Case(("weights", "--a", "0.3"), config={"table1": True}),
    Case(("verify", "ar-estimator", "--theta", "3", "--n", "1000", "--reps", "200")),
    # c(a) falls as a grows: at a = 0.6 the level c(a)<M>_n - [M]_n is not positive
    Case(("verify", "pqv-ratio", "--a", "0.6", "--n", "30", "--reps", "200", "--seed", "3")),
    # an explosive path overflows: the error counts the non-finite entries
    # of each whole column, in either format
    *(
        Case(("simulate", "ar1", "--theta", "3", "--n", "1000", "--seed", "3", "--format", fmt))
        for fmt in ("csv", "json")
    ),
    Case(("simulate", "ar1", "--n", str(10**15))),
    # a list with no numbers is refused, not read as empty or as the default
    Case(("hermite", "--a-grid", ",")),
    Case(("verify", "hermite", "--a-grid", ",")),
    Case(("verify", "idla-sqrt", "--x-grid", ",")),
    Case(("learning-table", "--r-grid", ",")),
    Case(("weights", "--a", ",")),
    # a value that is no real number is refused with that reason
    Case(("verify", "idla-scaled", "--x-grid", "nan")),
    Case(("hermite", "--x-max", "nan")),
    # levels at the edge of the floats: the Gaussian AR root past the
    # spacing of x^2, a discriminant of order a^2, b(a) rounded to 1/2, and
    # thresholds that overflow to inf
    Case(("verify", "ar-estimator", "--x-grid", "91", "--n", "30", "--reps", "200", "--seed", "3")),
    Case(("verify", "hermite", "--a-grid", "1000")),
    Case(("hermite", "--a-grid", "1e8")),
    # an x-range at or below 0 leaves nothing to check
    Case(("hermite", "--x-max", "0")),
    Case(("hermite", "--x-max", "-5")),
    Case(("verify", "ratio-tail", "--x-grid", "1e308", "--n", "30", "--reps", "200", "--seed", "3")),
    # d(a)'s denominator p^2 + pq c(a) underflows to 0, the ar-laplace
    # exponent t overflows, and cbg's (n r + 3) / delta would overflow
    *(
        Case(("verify", "ar-estimator", "--n", "10", "--reps", "100", "--seed", "3",
              "--a", "1e150", "--p", p))
        for p in ("5e-324", "1e-300")
    ),
    Case(("verify", "ar-laplace", "--n", "10", "--reps", "100", "--seed", "3", "--p", "5e-324")),
    Case(("learning-table", "--n", "1000000000000", "--delta", "1e-300", "--r-grid", "0.5")),
    *_help_cases(),
]


def run(case: Case, workdir: Path) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of cli.main on the case."""
    argv = list(case.argv)
    if case.config is not None:
        path = workdir / "config.json"
        path.write_text(json.dumps(case.config))
        argv += ["--config", str(path)]
    out, err = io.StringIO(), io.StringIO()
    # the environment is restored on leaving
    with mock.patch.dict(os.environ, {"COLUMNS": COLUMNS}):
        os.environ.pop(SEED_ENV, None)
        if case.env_seed is not None:
            os.environ[SEED_ENV] = case.env_seed
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def digest(code: int, out: str, err: str) -> str:
    return hashlib.sha256(json.dumps([code, out, err]).encode()).hexdigest()


def diff(table: dict[str, str], recorded: dict[str, str]) -> list[str]:
    """Lines naming each command whose digest differs from the recording,
    then each command added to or dropped from the corpus."""
    return (
        [f"changed {key}" for key in table if key in recorded and table[key] != recorded[key]]
        + [f"added {key}" for key in table if key not in recorded]
        + [f"dropped {key}" for key in recorded if key not in table]
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Record the golden-output corpus.")
    parser.add_argument(
        "--diff", action="store_true", help="print what differs from the recording; write nothing"
    )
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        table = {case.key: digest(*run(case, Path(tmp))) for case in CASES}
    if args.diff:
        lines = diff(table, json.loads(DIGESTS.read_text()))
        print("\n".join(lines) if lines else "no differences")
        return 1 if lines else 0
    DIGESTS.write_text(json.dumps(table, indent=1) + "\n")
    print(f"recorded {len(table)} digests in {DIGESTS}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
