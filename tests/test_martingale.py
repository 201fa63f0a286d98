import numpy as np
import pytest

from selfnorm.martingale import accumulate
from selfnorm.processes import IDLASpec, simulate
from test_processes import step_records


def test_empty_accumulate():
    m, qv, pqv = accumulate([], [])
    assert len(m) == 1  # n = 0 steps
    assert m[0] == qv[0] == pqv[0] == 0.0


def test_single_step():
    m, qv, pqv = accumulate([1.0], [1.0])
    assert list(m) == [0.0, 1.0]
    assert list(qv) == [0.0, 1.0]
    assert list(pqv) == [0.0, 1.0]


def test_accumulate_validation():
    with pytest.raises(ValueError):
        accumulate([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        accumulate([1.0], [-0.5])


def test_qv_increments_are_squared_increments():
    rng = np.random.default_rng(0)
    inc = rng.normal(size=200)
    m, qv, _ = accumulate(inc, np.ones(200))
    dm = np.diff(m)
    dqv = np.diff(qv)
    assert np.all(np.abs(dqv - dm**2) < 1e-12)


def test_variations_nondecreasing():
    rng = np.random.default_rng(1)
    _, qv, pqv = accumulate(rng.normal(size=500), rng.uniform(size=500))
    assert np.all(np.diff(qv) >= 0.0)
    assert np.all(np.diff(pqv) >= 0.0)


def test_idla_trace_pqv_identity():
    # pqv[3] = sum_{k=1..3} (k+1)^2 - X_{k-1}^2 for the simulated trace
    trace = simulate(IDLASpec(n=3), seed=5)
    xs = trace.states
    expected = sum((k + 1) ** 2 - xs[k - 1] ** 2 for k in range(1, 4))
    assert trace.columns()["pqv"][3] == pytest.approx(expected, abs=1e-12)


def test_accumulate_reproduces_trace_arrays():
    trace = simulate(IDLASpec(n=50), seed=9)
    _, inc, csm, _ = step_records(trace)
    rebuilt = dict(zip(("m", "qv", "pqv"), accumulate(inc, csm), strict=True))
    columns = trace.columns()
    for key in ("m", "qv", "pqv"):
        assert np.array_equal(rebuilt[key], columns[key])
