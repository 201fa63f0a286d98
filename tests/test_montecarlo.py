import dataclasses
import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from selfnorm import cli, montecarlo, processes
from selfnorm.bounds import exp_tail_bound, supermartingale_weight
from selfnorm.montecarlo import (
    CHECKS,
    estimate_expectation,
    event_indicator,
    hoeffding_epsilon,
    simulate_finals,
    summarize_indicators,
    verify,
)
from selfnorm.processes import AR1Spec, IDLASpec, LearnSpec, idla_exact_moments


IDLA = IDLASpec(n=50)
SRC = Path(__file__).resolve().parent.parent / "src"


def params(**overrides):
    """Flag values of a verify command at horizon 50, the horizon of IDLA."""
    flags = dict(
        reps=4096, process=None, seed=7, alpha=0.05, a=1 / 3, n=50, x_grid=None,
        p=1 / 3, theta=0.5, theta_star=0.5, eta=0.1, gamma0=0.5, c0=0.0, delta=0.2,
    )
    return SimpleNamespace(**{**flags, **overrides})


class TestHoeffding:
    def test_half_width(self):
        eps = hoeffding_epsilon(10_000, 0.05)
        assert eps == pytest.approx(math.sqrt(math.log(40.0) / 20_000.0), abs=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            hoeffding_epsilon(0, 0.05)
        with pytest.raises(ValueError):
            hoeffding_epsilon(100, 1.5)

    def test_ci_calibration(self):
        # Bernoulli(0.3) indicators: the interval should cover the truth in
        # at least 1 - alpha of independent repeats (Hoeffding is conservative)
        rng = np.random.default_rng(0)
        covered = 0
        repeats = 200
        for _ in range(repeats):
            est = summarize_indicators(rng.random(2000) < 0.3, alpha=0.05)
            covered += est["ci_lo"] <= 0.3 <= est["ci_hi"]
        assert covered / repeats >= 0.95


class TestSummarize:
    def test_never_firing_event(self):
        est = summarize_indicators(np.zeros(400, dtype=bool), alpha=0.05)
        assert est["p_hat"] == 0.0
        assert est["ci_lo"] == 0.0
        assert est["ci_hi"] == pytest.approx(hoeffding_epsilon(400, 0.05), abs=1e-15)

    def test_always_firing_event(self):
        est = summarize_indicators(np.ones(400, dtype=bool), alpha=0.05)
        assert est["p_hat"] == 1.0
        assert est["ci_hi"] == 1.0


class TestDeterminism:
    def test_finals_chunk_independent(self, monkeypatch):
        default = simulate_finals(IDLA, seed=3, n_samples=10_000)
        monkeypatch.setattr(montecarlo, "CHUNK", 1000)
        small = simulate_finals(IDLA, seed=3, n_samples=10_000)
        assert default.keys() == small.keys()
        for key in default:
            assert np.array_equal(default[key], small[key])

    def test_event_estimate_chunk_independent(self, monkeypatch):
        flags = params(reps=8192, seed=5, x_grid=[0.1])
        a = verify(CHECKS["ar-estimator"], flags)
        monkeypatch.setattr(montecarlo, "CHUNK", 1000)
        b = verify(CHECKS["ar-estimator"], flags)
        assert a == b

    def test_partial_chunk(self):
        finals = simulate_finals(IDLA, seed=3, n_samples=5000)
        full = simulate_finals(IDLA, seed=3, n_samples=10_000)
        assert np.array_equal(finals["x"], full["x"][:5000])


class TestEvents:
    def test_requires_enough_samples(self):
        with pytest.raises(ValueError):
            verify(CHECKS["idla-scaled"], params(reps=50, seed=0, x_grid=[0.1]))

    def test_event_indicator_evaluates_the_entry_event(self, monkeypatch):
        # idla-scaled's row at x reduces the indicators of |X_n|/n >= x,
        # which it evaluates through the module's event_indicator
        got = []

        def spy(event, run, x):
            got.append(event_indicator(event, run, x))
            return got[-1]

        monkeypatch.setattr(montecarlo, "event_indicator", spy)
        (row,) = verify(CHECKS["idla-scaled"], params(reps=256, seed=0, x_grid=[0.2]))
        want = np.abs(simulate_finals(IDLA, seed=0, n_samples=256)["x"]) / 50 >= 0.2
        assert len(got) == 1 and np.array_equal(got[0], want)
        assert row["p_hat"] == np.count_nonzero(want) / 256

    def test_weighted_tail_respects_bound(self):
        # |M_n| >= x with S_n(a) <= y should sit below 2 exp(-x^2 / (2 a y))
        check = dataclasses.replace(
            CHECKS["weighted-tail"], prepare=lambda run: setattr(run, "y", 600.0)
        )
        (row,) = verify(check, params(reps=20_000, seed=9, x_grid=[40.0]))
        assert row["y"] == 600.0
        assert row["ci_lo"] <= row["bound_weighted"] == exp_tail_bound(40.0, 600.0, 1 / 3)
        assert row["satisfied"]


def supermg_weights(n_samples, t, a):
    f = simulate_finals(IDLA, seed=2, n_samples=n_samples)
    return supermartingale_weight(f["m"], f["qv"], f["pqv"], t, a)


class TestExpectations:
    def test_supermg_t_zero(self):
        est = estimate_expectation(supermg_weights(512, 0.0, 1 / 3))
        assert est["mc_mean"] == 1.0
        assert est["mc_se"] == 0.0

    def test_supermg_mean_at_most_one(self):
        for t in (-0.01, 0.01):
            est = estimate_expectation(supermg_weights(10_000, t, 1 / 3))
            assert est["mc_mean"] <= 1.0 + 3.0 * est["mc_se"]

    def test_second_moment_matches_exact(self):
        m = simulate_finals(IDLASpec(n=100), seed=21, n_samples=100_000)["m"]
        est = estimate_expectation(m * m)
        _, em2 = idla_exact_moments(100)
        assert abs(est["mc_mean"] - em2) <= 3.0 * est["mc_se"]


class TestCompare:
    """Bound columns of the tail checks held against the estimate."""

    def test_single_threshold(self, monkeypatch):
        (row,) = verify(CHECKS["idla-scaled"], params(x_grid=[0.2], seed=7))
        assert row["x"] == 0.2
        assert {k for k in row if k.startswith("bound_")} == {"bound_weighted", "bound_azuma"}
        assert row["satisfied"]
        # no dominating list: every bound column is held against ci_lo, so
        # a zero Azuma bound fails the row
        assert row["ci_lo"] > 0.0
        monkeypatch.setattr(montecarlo.bounds, "azuma_idla_bound", lambda x, n: 0.0)
        (row,) = verify(CHECKS["idla-scaled"], params(x_grid=[0.2], seed=7))
        assert row["bound_azuma"] == 0.0
        assert not row["satisfied"]

    def test_ar_out_of_range_drops_weighted(self):
        (row,) = verify(CHECKS["ar-estimator"], params(x_grid=[5.0], seed=8))
        assert row["bound_weighted"] is None
        assert "bound_gauss-ar" in row

    def test_learning_rows_satisfied(self):
        # the excess-risk bound exp(-n x^2/(2a(1+c(a)))) at x = 0.1, 0.2, 0.3 is
        # the coverage level delta whose width(delta) is x
        for x in (0.1, 0.2, 0.3):
            delta = math.exp(-50 * x * x / (2.0 * (1 / 3) * 3.0))
            (row,) = verify(CHECKS["learn-threshold"], params(delta=delta, seed=10))
            assert row["satisfied"]


class TestVerify:
    @staticmethod
    def tail_row(bound_columns, dominating=()):
        def scaled(run, x):  # idla-scaled's event
            return np.abs(run.finals["x"]) / run.spec.n >= x

        check = montecarlo._tail_check("idla", 0, (0.1,), scaled, bound_columns, dominating)
        return verify(check, params(reps=1000, seed=1))[0]

    def test_tail_pass_rule(self):
        row = self.tail_row({"loose": lambda run, x: 1.0})
        assert row["satisfied"]
        assert 0.0 < row["ci_lo"] < row["p_hat"]
        # ci_lo, not p_hat, is held against the bound
        mid = (row["ci_lo"] + row["p_hat"]) / 2.0
        assert self.tail_row({"mid": lambda run, x: mid})["satisfied"]
        assert not self.tail_row({"zero": lambda run, x: 0.0})["satisfied"]
        # a bound outside the dominating set never fails the row
        both = {"zero": lambda run, x: 0.0, "loose": lambda run, x: 1.0}
        assert self.tail_row(both, ("loose",))["satisfied"]

    def test_coverage_pass_rule(self):
        # 300 events in 1000 replicates: ci_lo is held against delta, as a
        # tail row holds it against a bound
        check = montecarlo._coverage_check(lambda run, delta: run.indicators)
        run = SimpleNamespace(indicators=np.arange(1000) < 300, alpha=0.05)
        ci_lo = check.row(run, 0.3)["ci_lo"]
        assert ci_lo == 0.3 - hoeffding_epsilon(1000, 0.05)
        assert check.row(run, ci_lo)["satisfied"]
        assert not check.row(run, np.nextafter(ci_lo, 0.0))["satisfied"]

    @pytest.mark.parametrize("check_id", sorted(CHECKS))
    def test_x_grid_replaces_the_grid_exactly_where_flags_name_it(self, check_id):
        check = CHECKS[check_id]
        takes = "x_grid" in check.flags
        flags = dict(reps=200, n=30, a_grid=(1 / 3,))
        rows = verify(check, params(**flags, x_grid=[0.7]))
        # every row of an entry has the same keys in the same order
        assert all(list(row) == list(rows[0]) for row in verify(check, params(**flags)))
        if takes:
            assert [row["x"] for row in rows] == [0.7]
        else:
            assert rows == verify(check, params(**flags))
        # the id's parser takes --x-grid for the same ids
        argv = ["verify", check_id, "--x-grid", "0.7"]
        if takes:
            assert cli.build_parser(argv).parse_args(argv).x_grid == [0.7]
        else:
            with pytest.raises(ValueError, match="^unrecognized arguments: --x-grid 0.7$"):
                cli.build_parser(argv).parse_args(argv)

    def test_ar_laplace_overflow_names_p(self):
        # t = -1/(divisor sigma^2) overflows to -inf, and the bound is nan
        with pytest.raises(ValueError, match="at p = 5e-324$"):
            verify(CHECKS["ar-laplace"], params(p=5e-324, n=10, reps=100, seed=3))


FAN_OUT_SPECS = {"ar1": AR1Spec(n=40), "idla": IDLASpec(n=40), "learn": LearnSpec(n=40)}


def force_workers(monkeypatch, w):
    """Run fan_out on at most w processes, and so simulate_finals on w, at
    most one per group of 64, whatever the CPUs of this machine."""
    monkeypatch.setattr(montecarlo, "_cpus", lambda: w)


def bits(finals):
    """Each array's raw bits, so NaNs compare by position and payload."""
    return {key: values.view(np.uint64) for key, values in finals.items()}


def assert_bit_equal(a, b):
    assert list(a) == list(b)
    for key in a:
        assert np.array_equal(bits(a)[key], bits(b)[key]), key


class TestWorkers:
    @pytest.mark.parametrize("process", sorted(FAN_OUT_SPECS))
    @pytest.mark.parametrize("reps", [100, 127, 128, 129, 4097, 8255])
    def test_every_worker_count_gives_the_same_bits(self, monkeypatch, process, reps):
        spec = FAN_OUT_SPECS[process]
        whole = processes.finals(spec, 11, 0, reps)
        for w in (1, 2, 3):
            force_workers(monkeypatch, w)
            assert_bit_equal(simulate_finals(spec, 11, reps), whole)

    def test_non_finite_values_keep_their_positions(self, monkeypatch):
        # an explosive AR(1) overflows to inf and then NaN; with the check
        # off, every worker count sends back the same bits
        monkeypatch.setattr(montecarlo, "require_finite", lambda arrays, what: None)
        spec = AR1Spec(theta=3.0, n=1000)
        whole = processes.finals(spec, 5, 0, 200)
        assert np.isnan(whole["theta_hat"]).any()
        for w in (1, 2, 3):
            force_workers(monkeypatch, w)
            assert_bit_equal(simulate_finals(spec, 5, 200), whole)

    def test_workers_follow_the_cpus_and_the_groups(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        assert [montecarlo._workers(n) for n in (100, 127, 128, 191, 192, 10**6)] == [1, 1, 2, 2, 3, 4]

    def test_no_fork_without_sched_getaffinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity")
        assert montecarlo._workers(10**6) == 1

    def test_pinned_to_one_cpu_prints_the_same_bytes(self):
        cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
        if len(cpus) < 2:
            pytest.skip("this test process may run on only one CPU, so pinning changes nothing")
        argv = [sys.executable, "-m", "selfnorm.cli", "verify", "learn-threshold",
                "--n", "300", "--reps", "4200", "--seed", "3"]
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        free = subprocess.run(argv, env=env, capture_output=True, check=False)
        pinned = subprocess.run(
            argv, env=env, capture_output=True, check=False,
            preexec_fn=lambda: os.sched_setaffinity(0, {cpus[0]}),
        )
        assert (free.returncode, free.stderr) == (0, b"")
        assert (pinned.returncode, pinned.stderr, pinned.stdout) == (0, b"", free.stdout)


class TestFanOutValues:
    """fan_out hands back any picklable value, the same for every W."""

    @staticmethod
    def work(i: int):
        values = np.arange(5 * i, 5 * i + 5, dtype=np.float64) / 3.0
        values[i % 5] = np.nan
        return {"values": values, "inf": np.array([np.inf, -0.0])}, f"item {i}"

    def test_arrays_and_strings_do_not_depend_on_the_process_count(self, monkeypatch):
        expected = [self.work(i) for i in range(7)]
        for w in (1, 2, 3):
            force_workers(monkeypatch, w)
            got = list(montecarlo.fan_out(self.work, range(7)))
            assert [text for _, text in got] == [text for _, text in expected]
            for (arrays, _), (want, _) in zip(got, expected):
                assert_bit_equal(arrays, want)
            assert_no_child_left()

    @pytest.mark.parametrize("cpus, n", [(1, 5), (3, 7), (8, 2)])
    def test_item_i_runs_in_process_i_mod_w(self, monkeypatch, cpus, n):
        # W = min(usable CPUs, len(items)), and process 0 is this one
        force_workers(monkeypatch, cpus)
        pids = list(montecarlo.fan_out(lambda i: os.getpid(), range(n)))
        w = min(cpus, n)
        assert pids[0] == os.getpid()
        assert len(set(pids)) == w
        assert pids == [pids[i % w] for i in range(n)]
        assert_no_child_left()

    def test_value_error_subclass_arrives_as_value_error(self, monkeypatch):
        class Refused(ValueError):
            """Not picklable: a class local to a function."""

        def work(i):
            if i == 1:
                raise Refused(f"item {i} refused")
            return i

        force_workers(monkeypatch, 2)
        with pytest.raises(ValueError, match="^item 1 refused$") as raised:
            list(montecarlo.fan_out(work, range(4)))
        assert type(raised.value) is ValueError
        assert_no_child_left()

    def test_unpicklable_value_names_the_exit_status(self, monkeypatch):
        force_workers(monkeypatch, 2)
        with pytest.raises(RuntimeError, match="exit status 3$"):
            list(montecarlo.fan_out(lambda i: lambda: i, range(4)))
        assert_no_child_left()


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def fail_in_children(monkeypatch, exc):
    """Make processes.finals raise exc on every block but the caller's, whose
    stripe alone starts at replicate 0."""
    finals = processes.finals

    def failing(spec, seed, rep_lo, rep_hi):
        if rep_lo > 0:
            raise exc
        return finals(spec, seed, rep_lo, rep_hi)

    monkeypatch.setattr(processes, "finals", failing)


class TestNoChildLeft:
    def test_success_reaps_every_child(self, monkeypatch):
        force_workers(monkeypatch, 3)
        simulate_finals(IDLA, seed=2, n_samples=1000)
        assert_no_child_left()

    @pytest.mark.parametrize("error", [ValueError, MemoryError])
    def test_child_error_is_raised_again(self, monkeypatch, error):
        force_workers(monkeypatch, 2)
        fail_in_children(monkeypatch, error("no such replicate"))
        with pytest.raises(error, match="^no such replicate$"):
            simulate_finals(IDLA, seed=2, n_samples=1000)
        assert_no_child_left()

    def test_child_value_error_exits_2_with_one_line(self, monkeypatch, capsys):
        force_workers(monkeypatch, 2)
        fail_in_children(monkeypatch, ValueError("no such replicate"))
        code = cli.main(["verify", "idla-scaled", "--n", "30", "--reps", "1000", "--seed", "3"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", "error: no such replicate\n")
        assert_no_child_left()

    def test_other_child_failure_names_its_exit_status(self, monkeypatch):
        force_workers(monkeypatch, 2)
        fail_in_children(monkeypatch, KeyError("lost"))
        with pytest.raises(RuntimeError, match="exit status 3$"):
            simulate_finals(IDLA, seed=2, n_samples=1000)
        assert_no_child_left()

    def test_failing_caller_kills_and_reaps_every_child(self, monkeypatch):
        def caller_fails(spec, seed, rep_lo, rep_hi):
            if rep_lo == 0:
                raise KeyboardInterrupt
            time.sleep(60)  # a child that would outlive the test unless killed
            raise AssertionError("not reached")

        force_workers(monkeypatch, 3)
        monkeypatch.setattr(processes, "finals", caller_fails)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            simulate_finals(IDLA, seed=2, n_samples=1000)
        assert time.monotonic() - start < 30
        assert_no_child_left()

    def test_no_fork_from_a_threaded_caller(self, monkeypatch):
        forks = []
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        results = []
        thread = threading.Thread(target=lambda: results.append(simulate_finals(IDLA, 2, 1000)))
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert forks == [] and len(results) == 1
        assert_bit_equal(results[0], processes.finals(IDLA, 2, 0, 1000))
        # on the main thread the same call forks one child per extra CPU
        simulate_finals(IDLA, 2, 1000)
        assert forks == [1]
        assert_no_child_left()
