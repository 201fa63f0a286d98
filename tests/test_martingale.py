import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from selfnorm.bounds import hermite_margin
from selfnorm.martingale import MartingalePath, accumulate, s_weighted, supermartingale_weight
from selfnorm.processes import IDLASpec, simulate
from test_processes import step_records


def test_empty_accumulate():
    path = accumulate([], [])
    assert path.n == 0
    assert path.m[0] == path.qv[0] == path.pqv[0] == 0.0


def test_single_step():
    path = accumulate([1.0], [1.0])
    assert list(path.m) == [0.0, 1.0]
    assert list(path.qv) == [0.0, 1.0]
    assert list(path.pqv) == [0.0, 1.0]


def test_accumulate_validation():
    with pytest.raises(ValueError):
        accumulate([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        accumulate([1.0], [-0.5])


def test_qv_increments_are_squared_increments():
    rng = np.random.default_rng(0)
    inc = rng.normal(size=200)
    path = accumulate(inc, np.ones(200))
    dm = np.diff(path.m)
    dqv = np.diff(path.qv)
    assert np.all(np.abs(dqv - dm**2) < 1e-12)


def test_variations_nondecreasing():
    rng = np.random.default_rng(1)
    path = accumulate(rng.normal(size=500), rng.uniform(size=500))
    assert np.all(np.diff(path.qv) >= 0.0)
    assert np.all(np.diff(path.pqv) >= 0.0)


def test_path_is_immutable():
    path = accumulate([1.0], [1.0])
    with pytest.raises(ValueError):
        path.m[0] = 5.0


def test_bad_start_rejected():
    with pytest.raises(ValueError):
        MartingalePath(m=np.array([1.0]), qv=np.array([0.0]), pqv=np.array([0.0]))


def running_sums(increments, cond_second_moments):
    """M_k, [M]_k and <M>_k for k = 0..n: the running sums from 0 of the
    increments, their squares and the conditional second moments, added left
    to right as the drivers add them."""
    inc = np.asarray(increments, dtype=float)
    csm = np.asarray(cond_second_moments, dtype=float)
    return tuple(np.cumsum([0.0, *values]) for values in (inc, inc * inc, csm))


class TestSWeighted:
    def test_zero_at_origin(self):
        _, qv, pqv = running_sums([1.0, -2.0], [1.0, 4.0])
        assert s_weighted(qv[0], pqv[0], 1 / 3) == 0.0

    def test_equal_variations_collapse(self):
        # qv[k] = pqv[k] = v gives (1 + c(a)) v
        _, qv, pqv = running_sums([2.0], [4.0])
        assert s_weighted(qv[1], pqv[1], 1 / 3) == pytest.approx(3.0 * 4.0, abs=1e-12)
        # a = 9/16: c = 1, so S = qv + pqv
        assert s_weighted(qv[1], pqv[1], 9 / 16) == pytest.approx(8.0, abs=1e-12)

    def test_monotone_in_k(self):
        rng = np.random.default_rng(2)
        _, qv, pqv = running_sums(rng.normal(size=100), rng.uniform(size=100))
        for a in (0.13, 1 / 3, 9 / 16, 3.0):
            values = s_weighted(qv, pqv, a)
            assert np.all(np.diff(values) >= 0.0)

    def test_domain_error(self):
        _, qv, pqv = running_sums([1.0], [1.0])
        with pytest.raises(ValueError):
            s_weighted(qv[1], pqv[1], 0.1)


class TestSupermartingaleWeight:
    @staticmethod
    def weight(path, t, a, k):
        m, qv, pqv = path
        return supermartingale_weight(m[k], qv[k], pqv[k], t, a)

    def test_t_zero_is_one(self):
        path = running_sums([1.0, 2.0], [1.0, 4.0])
        for k in range(3):
            assert self.weight(path, 0.0, 1 / 3, k) == 1.0

    def test_zero_path_is_one(self):
        path = running_sums([0.0] * 5, [0.0] * 5)
        for t in (-2.0, 0.5, 10.0):
            assert self.weight(path, t, 1 / 3, 5) == 1.0

    def test_positive_and_no_overflow(self):
        path = running_sums([1e3] * 10, [1e6] * 10)
        v = self.weight(path, 5.0, 1 / 3, 10)
        assert v >= 0.0 and np.isfinite(v)

    def test_overflow_is_inf(self):
        # an exponent past the float range gives inf, with no warning raised
        assert supermartingale_weight(1e3, 0.0, 0.0, 1.0, 1 / 3) == np.inf

    @given(st.floats(min_value=-1.0, max_value=1.0))
    def test_matches_direct_formula(self, t):
        path = running_sums([1.0, -0.5], [1.0, 0.25])
        m, qv, pqv = path
        a, b = 1 / 3, 2 / 3
        expected = np.exp(t * m[2] - a * t * t / 2 * qv[2] - b * t * t / 2 * pqv[2])
        assert self.weight(path, t, 1 / 3, 2) == pytest.approx(float(expected), rel=1e-12)


def test_array_forms_equal_float_forms():
    # one definition: on an array, each formula gives bit for bit what it
    # gives on each element as a Python float
    rng = np.random.default_rng(3)
    ms, qvs, pqvs = running_sums(rng.normal(size=300), rng.uniform(size=300))
    xs = np.concatenate((np.linspace(-60.0, 60.0, 241), [1e160, -1e160]))
    for a in (0.13, 1 / 3, 9 / 16, 3.0):
        s = s_weighted(qvs, pqvs, a)
        assert s.tobytes() == np.array(
            [s_weighted(float(q), float(v), a) for q, v in zip(qvs, pqvs)]
        ).tobytes()
        for t in (-2.0, -0.05, 0.01, 3.0):
            w = supermartingale_weight(ms, qvs, pqvs, t, a)
            assert w.tobytes() == np.array(
                [
                    supermartingale_weight(float(m), float(q), float(v), t, a)
                    for m, q, v in zip(ms, qvs, pqvs)
                ]
            ).tobytes()
        margin = hermite_margin(xs, a)
        assert margin.tobytes() == np.array([hermite_margin(float(x), a) for x in xs]).tobytes()


def test_idla_trace_pqv_identity():
    # pqv[3] = sum_{k=1..3} (k+1)^2 - X_{k-1}^2 for the simulated trace
    trace = simulate(IDLASpec(n=3), seed=5)
    xs = trace.states
    expected = sum((k + 1) ** 2 - xs[k - 1] ** 2 for k in range(1, 4))
    assert trace.columns()["pqv"][3] == pytest.approx(expected, abs=1e-12)


def test_accumulate_reproduces_trace_arrays():
    trace = simulate(IDLASpec(n=50), seed=9)
    _, inc, csm, _ = step_records(trace)
    rebuilt = accumulate(inc, csm)
    columns = trace.columns()
    for key in ("m", "qv", "pqv"):
        assert np.array_equal(getattr(rebuilt, key), columns[key])
