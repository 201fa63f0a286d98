"""Self-tests of the benchmark: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


def _span(span_id, parent, start, end, thread=1):
    return [span_id, parent, "layer", thread, start, end, None]


def test_self_time_subtracts_union_of_overlapping_children():
    spans = [
        _span(1, 0, 0.0, 10.0),
        _span(2, 1, 1.0, 4.0, thread=2),
        _span(3, 1, 2.0, 6.0, thread=3),  # overlaps span 2 in another thread
        _span(4, 1, 5.0, 5.5, thread=2),  # inside span 3
        _span(5, 1, 8.0, 11.0, thread=3),  # runs past its parent
        _span(6, 2, 1.5, 2.5, thread=2),
    ]
    own = run.self_times(spans)
    assert own[1] == pytest.approx(10.0 - 5.0 - 2.0)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(4.0)
    assert own[5] == pytest.approx(3.0)
    assert all(value >= 0.0 for value in own.values())


VERIFY = run.Command(("verify", "idla-scaled"), reps=100, n=10, rows=2)
HEADER = "x,bound_weighted,p_hat,ci_lo,ci_hi,n_samples,satisfied\r\n"
GOOD_ROW = "0.1,0.5,0.01,0.0,0.2,100,True\r\n"


def _fixture(tmp_path: Path, stdout: str, stderr: str = "", code: int = 0) -> run.Run:
    path = tmp_path / "stdout"
    path.write_text(stdout, newline="")
    return run.Run(0.1, 1.0, code, stderr, path, path.stat().st_size, "")


def test_oracle_accepts_well_formed_rows(tmp_path):
    assert run.problems(VERIFY, _fixture(tmp_path, HEADER + GOOD_ROW * 2)) == []


@pytest.mark.parametrize(
    "stdout, stderr, code, reason",
    [
        (HEADER + GOOD_ROW + "0.2,nan,0.01,0.0,0.2,100,True\r\n", "", 0, "bound_weighted=nan"),
        (HEADER + GOOD_ROW + "0.2,inf,0.01,0.0,0.2,100,True\r\n", "", 0, "bound_weighted=inf"),
        (HEADER + GOOD_ROW + "0.2,0.5,0.9,0.8,1.0,100,False\r\n", "", 1, "satisfied=False"),
        (
            HEADER + GOOD_ROW * 2,
            'Traceback (most recent call last):\n  File "x"\nZeroDivisionError: x\n',
            0,
            "ZeroDivisionError",
        ),
        ("", "error: horizon must be >= 1, got 0\n", 2, "exit code 2"),
        (HEADER + GOOD_ROW, "", 0, "1 rows, expected 2"),
        (HEADER + GOOD_ROW + "0.2,0.5\r\n", "", 0, "2 fields"),
    ],
)
def test_oracle_rejects_bad_output(tmp_path, stdout, stderr, code, reason):
    found = run.problems(VERIFY, _fixture(tmp_path, stdout, stderr, code))
    assert any(reason in item for item in found), found


def test_oracle_allows_only_declared_nan_cells(tmp_path):
    header = "step,m,theta_hat\r\n"
    trace = header + "0,0.0,nan\r\n1,0.5,0.25\r\n"
    declared = run.Command(("simulate", "ar1"), 1, 1, 2, frozenset({(0, "theta_hat")}))
    assert run.problems(declared, _fixture(tmp_path, trace)) == []
    undeclared = run.Command(("simulate", "ar1"), 1, 1, 2)
    assert run.problems(undeclared, _fixture(tmp_path, trace)) == ["row 0: theta_hat=nan"]


def test_peak_rss_is_taken_per_child(tmp_path):
    deadline = time.monotonic() + 60
    big_mb = 96
    allocate = f"x = b'1' * ({big_mb} << 20)"
    big = run.spawn([sys.executable, "-c", allocate], tmp_path / "out", {}, deadline)
    small = run.spawn([sys.executable, "-c", "pass"], tmp_path / "out", {}, deadline)
    assert big.code == small.code == 0
    assert big.rss_mb >= big_mb
    # a high-water mark over all children would report the big child again
    assert small.rss_mb < big.rss_mb - big_mb / 2


@pytest.mark.skipif(not (run.SRC / "selfnorm").is_dir(), reason="needs the selfnorm sources")
def test_traced_and_untraced_outputs_agree(tmp_path):
    commands = (
        run.Command(("simulate", "idla", "--n", "50"), 1, 50, 51),
        run.Command(("verify", "idla-scaled", "--n", "20", "--reps", "300"), 300, 20, 4),
    )
    bench = run.Bench(commands, seed=3, workdir=tmp_path)
    plain, _ = bench.run_pass(traced=False)
    traced, docs = bench.run_pass(traced=True)
    assert bench.failures == []
    assert [r.digest for r in plain] == [r.digest for r in traced]
    names = {span[2] for doc in docs for span in doc["spans"]}
    assert {"cli.main", "processes.simulate", "processes.trace_to_csv"} <= names
    assert {"montecarlo.simulate_finals", "processes.finals", "bounds"} <= names
    metrics = run.layer_metrics(docs)
    assert metrics["montecarlo.chunks"] == 1
    assert metrics["processes.uniform_rows.streams"] == 1 + 300
    assert metrics["processes.finals.steps"] == 300 * 20
    assert metrics["processes.simulate.steps"] == 50


def test_metric_names_and_units_match_benchmark_json():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert per_layer == run.LAYER_METRICS
    runs = [run.Run(1.0, 50.0, 0, "", Path("out"), 1, "")]
    bench = run.Bench(run.WORKLOADS["trace"], seed=0, workdir=Path("."))
    result = bench._end_to_end_result([runs, runs], [0.2, 0.3])
    end_to_end = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    assert {name: unit for name, (_, unit) in result.items()} == end_to_end
