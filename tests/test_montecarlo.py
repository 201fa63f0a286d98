import math
from types import SimpleNamespace

import numpy as np
import pytest

from selfnorm import montecarlo
from selfnorm.bounds import exp_tail_bound
from selfnorm.montecarlo import (
    Check,
    CompareConfig,
    Functional,
    TailEvent,
    compare_bounds,
    estimate_event,
    estimate_expectation,
    hoeffding_epsilon,
    simulate_finals,
    summarize_indicators,
    verify,
)
from selfnorm.processes import AR1Spec, IDLASpec, LearnSpec, idla_exact_moments


AR = AR1Spec(p=1 / 3, theta=0.5, n=50)
IDLA = IDLASpec(n=50)
LEARN = LearnSpec(theta_star=0.5, eta=0.1, gamma0=0.5, c0=0.0, n=50)


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
            est = summarize_indicators(rng.random(2000) < 0.3, alpha=0.05, seed=0)
            covered += est.ci_lo <= 0.3 <= est.ci_hi
        assert covered / repeats >= 0.95


class TestSummarize:
    def test_never_firing_event(self):
        est = summarize_indicators(np.zeros(400, dtype=bool), alpha=0.05, seed=1)
        assert est.p_hat == 0.0
        assert est.ci_lo == 0.0
        assert est.ci_hi == pytest.approx(hoeffding_epsilon(400, 0.05), abs=1e-15)

    def test_always_firing_event(self):
        est = summarize_indicators(np.ones(400, dtype=bool), alpha=0.05, seed=1)
        assert est.p_hat == 1.0
        assert est.ci_hi == 1.0


class TestDeterminism:
    def test_finals_chunk_independent(self, monkeypatch):
        default = simulate_finals(IDLA, seed=3, n_samples=10_000)
        monkeypatch.setattr(montecarlo, "CHUNK", 1000)
        small = simulate_finals(IDLA, seed=3, n_samples=10_000)
        assert default.keys() == small.keys()
        for key in default:
            assert np.array_equal(default[key], small[key])

    def test_event_estimate_chunk_independent(self, monkeypatch):
        ev = TailEvent("ar-estimator", x=0.1)
        a = estimate_event(AR, ev, 8192, seed=5)
        monkeypatch.setattr(montecarlo, "CHUNK", 1000)
        b = estimate_event(AR, ev, 8192, seed=5)
        assert a == b

    def test_partial_chunk(self):
        finals = simulate_finals(IDLA, seed=3, n_samples=5000)
        full = simulate_finals(IDLA, seed=3, n_samples=10_000)
        assert np.array_equal(finals["x"], full["x"][:5000])


class TestEvents:
    def test_requires_enough_samples(self):
        with pytest.raises(ValueError):
            estimate_event(IDLA, TailEvent("idla-scaled", x=0.1), 50, seed=0)

    def test_unknown_kind(self):
        finals = simulate_finals(IDLA, seed=0, n_samples=256)
        from selfnorm.montecarlo import event_indicator

        with pytest.raises(ValueError):
            event_indicator(IDLA, TailEvent("no-such-event", x=0.1), finals)

    def test_process_mismatch(self):
        with pytest.raises(ValueError):
            estimate_event(IDLA, TailEvent("ar-estimator", x=0.1), 256, seed=0)

    def test_weighted_tail_respects_bound(self):
        # |M_n| >= x with S_n(a) <= y should sit below 2 exp(-x^2 / (2 a y))
        a, x, y = 1 / 3, 40.0, 600.0
        est = estimate_event(IDLA, TailEvent("mart-abs", x=x, y=y, a=a), 20_000, seed=9)
        assert est.ci_lo <= exp_tail_bound(x, y, a)

    def test_missing_moment_required(self):
        finals = simulate_finals(IDLA, seed=0, n_samples=256)
        from selfnorm.montecarlo import event_indicator

        with pytest.raises(ValueError):
            event_indicator(IDLA, TailEvent("mart-missing", x=1.0, a=1 / 3), finals)


class TestExpectations:
    def test_supermg_t_zero(self):
        est = estimate_expectation(
            IDLA, Functional("supermg-weight", t=0.0, a=1 / 3), 512, seed=2
        )
        assert est.mean == 1.0
        assert est.se == 0.0

    def test_supermg_mean_at_most_one(self):
        for t in (-0.01, 0.01):
            est = estimate_expectation(
                IDLA, Functional("supermg-weight", t=t, a=1 / 3), 10_000, seed=2
            )
            assert est.mean <= 1.0 + 3.0 * est.se

    def test_second_moment_matches_exact(self):
        est = estimate_expectation(
            IDLASpec(n=100), Functional("second-moment"), 100_000, seed=21
        )
        _, em2 = idla_exact_moments(100)
        assert abs(est.mean - em2) <= 3.0 * est.se

    def test_laplace_grid_min(self):
        est = estimate_expectation(
            IDLA, Functional("laplace-s", x=0.005, a=1 / 3), 4096, seed=4
        )
        assert 0.0 < est.mean <= 2.0
        assert est.se >= 0.0

    def test_horizon_truncation(self):
        est_k = estimate_expectation(
            IDLASpec(n=100), Functional("second-moment", k=50), 4096, seed=6
        )
        est_direct = estimate_expectation(
            IDLASpec(n=50), Functional("second-moment"), 4096, seed=6
        )
        assert est_k == est_direct
        with pytest.raises(ValueError):
            estimate_expectation(
                IDLA, Functional("second-moment", k=500), 4096, seed=6
            )

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            estimate_expectation(IDLA, Functional("no-such"), 256, seed=0)


class TestCompare:
    def test_single_threshold(self):
        cfg = CompareConfig(a=1 / 3, n_samples=4096, seed=7)
        rows = compare_bounds(IDLA, [0.2], cfg)
        assert len(rows) == 1
        row = rows[0]
        assert row.x == 0.2
        assert set(row.bounds) == {"weighted", "azuma"}
        assert row.dominating == ("weighted", "azuma")
        assert row.satisfied

    def test_empty_grid_rejected(self):
        cfg = CompareConfig(a=1 / 3, n_samples=4096, seed=7)
        with pytest.raises(ValueError):
            compare_bounds(IDLA, [], cfg)

    def test_ar_out_of_range_drops_weighted(self):
        cfg = CompareConfig(a=1 / 3, n_samples=4096, seed=8)
        rows = compare_bounds(AR, [5.0], cfg)
        assert "weighted" not in rows[0].bounds
        assert "gauss-ar" in rows[0].bounds

    def test_learning_rows_satisfied(self):
        cfg = CompareConfig(a=1 / 3, n_samples=4096, seed=10)
        rows = compare_bounds(LEARN, [0.1, 0.2, 0.3], cfg)
        assert all(row.satisfied for row in rows)


class TestVerify:
    @staticmethod
    def tail_row(bound_columns, dominating=()):
        check = Check("idla", 0, (0.1,), "idla-scaled", bound_columns, dominating)
        params = SimpleNamespace(
            reps=1000, process=None, seed=1, alpha=0.05, a=1 / 3, n=50, x_grid=None
        )
        return verify(check, params)[0]

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
