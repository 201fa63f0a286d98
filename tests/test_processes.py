import math

import numpy as np
import pytest

from selfnorm.bounds import weight_c
from selfnorm.martingale import s_weighted
from selfnorm.processes import (
    AR1Spec,
    IDLASpec,
    LearnSpec,
    ar1_finals,
    ar1_simulate,
    finals as block_finals,
    idla_exact_moments,
    idla_finals,
    idla_simulate,
    learning_finals,
    learning_simulate,
    simulate,
    trace_to_csv,
    true_risk,
    uniform_rows,
)


class TestSpecs:
    def test_validation(self):
        with pytest.raises(ValueError):
            AR1Spec(p=0.6, theta=0.5, n=10)
        with pytest.raises(ValueError):
            AR1Spec(p=0.5, theta=0.5, n=0)
        with pytest.raises(ValueError):
            IDLASpec(n=0)
        with pytest.raises(ValueError):
            LearnSpec(theta_star=0.5, eta=0.5, gamma0=0.5, c0=0.0, n=10)
        with pytest.raises(ValueError):
            LearnSpec(theta_star=1.5, eta=0.1, gamma0=0.5, c0=0.0, n=10)

    def test_noise_variance(self):
        spec = AR1Spec(p=1 / 3, theta=0.5, n=10)
        assert spec.sigma2 == pytest.approx(8 / 9, abs=1e-15)


class TestRng:
    def test_streams_keyed_by_replicate(self):
        a = uniform_rows(42, 0, 3, 8)
        b = uniform_rows(42, 1, 2, 8)
        assert np.array_equal(a[1], b[0])
        assert not np.array_equal(a[0], a[1])

    def test_seed_changes_stream(self):
        assert not np.array_equal(uniform_rows(1, 0, 1, 8), uniform_rows(2, 0, 1, 8))

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            uniform_rows(-1, 0, 1, 8)

    def test_seed_range(self):
        # numpy reads the key [seed, rep] as float64 once seed >= 2**63,
        # where neighbouring seeds give the same stream
        top = uniform_rows(2**63 - 1, 0, 2, 8)
        assert not np.array_equal(top, uniform_rows(2**63 - 2, 0, 2, 8))
        for seed in (2**63, 2**63 + 1, 2**64 - 1, 10**23):
            with pytest.raises(ValueError, match="seed"):
                uniform_rows(seed, 0, 1, 8)


class TestAR1:
    spec = AR1Spec(p=1 / 3, theta=0.5, n=100)

    def test_noise_support(self):
        trace = ar1_simulate(self.spec, seed=0)
        xs = trace.stats["x"]
        eps = xs[1:] - self.spec.theta * xs[:-1]
        p, q = self.spec.p, self.spec.q
        assert np.all(np.isclose(eps, 2 * q) | np.isclose(eps, -2 * p))
        assert np.all(
            np.isclose(eps**2, 4 * q * q) | np.isclose(eps**2, 4 * p * p)
        )

    def test_estimator_identity(self):
        for seed in range(5):
            trace = ar1_simulate(self.spec, seed=seed)
            th = trace.stats["theta_hat"][-1]
            rhs = self.spec.sigma2 * trace.path.m[-1] / trace.path.pqv[-1]
            assert th - self.spec.theta == pytest.approx(rhs, rel=1e-10)

    def test_sandwich_every_k(self):
        p, q = self.spec.p, self.spec.q
        trace = ar1_simulate(self.spec, seed=3)
        qv, pqv = trace.path.qv[1:], trace.path.pqv[1:]
        assert np.all(p / q * pqv <= qv * (1 + 1e-12))
        assert np.all(qv <= q / p * pqv * (1 + 1e-12))
        finals = ar1_finals(self.spec, 3, 0, 256)
        assert np.all(finals["sandwich_ok"])

    def test_symmetric_case_variations_equal(self):
        spec = AR1Spec(p=0.5, theta=0.5, n=100)
        trace = ar1_simulate(spec, seed=1)
        assert np.array_equal(trace.path.qv, trace.path.pqv)

    def test_deterministic(self):
        t1 = ar1_simulate(self.spec, seed=11)
        t2 = ar1_simulate(self.spec, seed=11)
        assert np.array_equal(t1.stats["x"], t2.stats["x"])


class TestIDLA:
    spec = IDLASpec(n=200)

    def test_path_constraints(self):
        trace = idla_simulate(self.spec, seed=4)
        xs = trace.stats["x"]
        ks = np.arange(self.spec.n + 1)
        assert np.all(np.abs(xs) <= ks)
        assert np.all((xs - ks) % 2 == 0)
        assert np.all(trace.stats["r"] - trace.stats["l"] == ks)

    def test_pqv_identity(self):
        trace = idla_simulate(IDLASpec(n=50), seed=8)
        xs = trace.stats["x"]
        n = 50
        expected = sum((k + 1) ** 2 for k in range(1, n + 1)) - sum(
            xs[k - 1] ** 2 for k in range(1, n + 1)
        )
        assert trace.path.pqv[-1] == pytest.approx(expected, abs=1e-9)

    def test_exact_moments(self):
        assert idla_exact_moments(1) == (1.0, 4.0)
        ex2, em2 = idla_exact_moments(100)
        assert ex2 == pytest.approx(34.0, abs=1e-12)
        assert em2 == pytest.approx(101**2 * 34.0, abs=1e-6)
        with pytest.raises(ValueError):
            idla_exact_moments(0)

    def test_moment_recursion(self):
        prev = idla_exact_moments(1)[0]
        for n in range(2, 1001):
            cur = idla_exact_moments(n)[0]
            assert cur == pytest.approx(1 + (n - 1) / (n + 1) * prev, rel=1e-12)
            prev = cur

    def test_second_moment_mc(self):
        finals = idla_finals(IDLASpec(n=100), 21, 0, 20_000)
        x2 = finals["x"] ** 2
        se = x2.std() / math.sqrt(len(x2))
        assert abs(x2.mean() - 34.0) <= 3 * se

    def test_conditional_mean_identity(self):
        # E[X_k | X_{k-1}] = (k/(k+1)) X_{k-1}, checked by MC at fixed k
        k = 10
        finals = idla_finals(IDLASpec(n=k - 1), 31, 0, 40_000)
        x_prev = finals["x"]
        u = uniform_rows(31, 0, 40_000, k)[:, k - 1]
        p_up = (k + 1 - x_prev) / (2.0 * (k + 1))
        x_next = x_prev + np.where(u < p_up, 1.0, -1.0)
        resid = x_next - k / (k + 1) * x_prev
        se = resid.std() / math.sqrt(len(resid))
        assert abs(resid.mean()) <= 3 * se

    def test_variation_processes_always_split(self):
        # the step-2 increments of qv and pqv can never agree, so the two
        # processes differ as sequences on every path once n >= 2
        finals = idla_finals(IDLASpec(n=2), 5, 0, 5000)
        assert not np.any(finals["qv"] == finals["pqv"])
        for rep in range(50):
            trace = idla_simulate(IDLASpec(n=10), seed=5, replicate=rep)
            assert np.any(trace.path.qv != trace.path.pqv)
            assert trace.path.qv[2] != trace.path.pqv[2]


class TestLearning:
    spec = LearnSpec(theta_star=0.5, eta=0.1, gamma0=0.5, c0=0.0, n=100)

    def test_perfect_hypothesis_is_degenerate(self):
        spec = LearnSpec(theta_star=0.5, eta=0.0, gamma0=0.5, c0=0.5, n=50)
        trace = learning_simulate(spec, seed=0)
        assert np.all(trace.stats["true_risk"] == 0.0)
        assert np.all(trace.stats["loss"] == 0.0)
        assert np.all(trace.path.m == 0.0)

    def test_losses_binary(self):
        trace = learning_simulate(self.spec, seed=2)
        assert set(np.unique(trace.stats["loss"])) <= {0.0, 1.0}

    def test_risk_gap_is_scaled_martingale(self):
        trace = learning_simulate(self.spec, seed=3)
        for k in range(1, self.spec.n + 1):
            gap = trace.stats["r_bar"][k] - trace.stats["r_hat"][k]
            assert gap == pytest.approx(trace.path.m[k] / k, abs=1e-12)

    def test_closed_form_risk(self):
        # quadrature oracle over x in [0,1] for the 0-1 loss of h_c
        def risk_numeric(c, theta_star, eta):
            xs = np.linspace(0.0, 1.0, 200_001)
            pred = xs >= c
            clean = xs >= theta_star
            wrong = pred != clean
            return float(np.trapezoid(np.where(wrong, 1 - eta, eta), xs))

        assert true_risk(0.7, 0.5, 0.1) == pytest.approx(0.26, abs=1e-12)
        for c, ts, eta in ((0.7, 0.5, 0.1), (0.2, 0.6, 0.0), (0.9, 0.1, 0.3)):
            assert true_risk(c, ts, eta) == pytest.approx(
                risk_numeric(c, ts, eta), abs=1e-4
            )

    def test_weighted_variation_cap(self):
        finals = learning_finals(self.spec, 17, 0, 512)
        n = self.spec.n
        for a in (1 / 3, 9 / 16, 0.2):
            s = finals["qv"] + weight_c(a) * finals["pqv"]
            cap = n * (1 + weight_c(a) * finals["r_bar"])
            assert np.all(s <= cap + 1e-9)


# (spec, seed) per process; the finals keys other than the per-step checks
# are the path's m, qv, pqv and these trace statistics
KERNEL_CASES = {
    "ar1": (AR1Spec(p=1 / 3, theta=0.5, n=100), 7, ("theta_hat",)),
    "idla": (IDLASpec(n=200), 13, ("x",)),
    "learn": (LearnSpec(theta_star=0.5, eta=0.1, gamma0=0.5, c0=0.0, n=100), 23, ("r_hat", "r_bar")),
}


@pytest.mark.parametrize("rep", range(4))
@pytest.mark.parametrize("process", KERNEL_CASES)
def test_kernel_matches_single_path(process, rep):
    spec, seed, stats = KERNEL_CASES[process]
    finals = block_finals(spec, seed, 0, 4)
    trace = simulate(spec, seed=seed, replicate=rep)
    assert set(finals) - {"sandwich_ok"} == {"m", "qv", "pqv", *stats}
    for key in ("m", "qv", "pqv"):
        assert getattr(trace.path, key)[-1] == finals[key][rep]
    for key in stats:
        assert trace.stats[key][-1] == finals[key][rep]


def test_trace_csv_shape():
    trace = idla_simulate(IDLASpec(n=4), seed=1)
    text = trace_to_csv(trace)
    lines = text.splitlines()
    assert lines[0] == "step,m,qv,pqv,x,l,r"
    assert len(lines) == 6
    assert text.endswith("\r\n")
