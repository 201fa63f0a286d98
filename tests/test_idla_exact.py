"""The exact law of IDLA's X_n against the simulator and the bounds.

The law comes from dynamic programming over x in [-n, n], stepped by the
shipped ``IDLASpec.up``, so the oracle runs the simulator's own
up-probability rather than a copy of it.  It has no Monte Carlo error: a
bound below an exact tail is a real violation, never a grid to adjust.
"""

import math

import numpy as np
import pytest
from scipy import stats

from selfnorm.bounds import azuma_idla_bound, idla_bounds
from selfnorm.processes import IDLASpec, finals, idla_exact_moments

HORIZONS = (10, 100, 1000)


def idla_law(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(xs, probs): P(X_n = x) for x = -n..n, X_0 = 0."""
    spec = IDLASpec(n=n)
    xs = np.arange(-n, n + 1, dtype=float)
    probs = np.zeros(2 * n + 1)
    probs[n] = 1.0
    for k in range(1, n + 1):
        # X_{k-1} lies in [-(k-1), k-1], so no mass leaves the array
        up = spec.up(xs, k)
        moved = np.zeros_like(probs)
        moved[1:] += probs[:-1] * up[:-1]
        moved[:-1] += probs[1:] * (1.0 - up[1:])
        probs = moved
    return xs, probs


@pytest.mark.parametrize("n", HORIZONS)
def test_law_has_the_exact_moments(n):
    xs, probs = idla_law(n)
    assert probs.min() >= 0.0
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    ex2 = float(np.sum(xs * xs * probs))
    assert abs(ex2 - (n + 2) / 3) <= 1e-12 * n
    # M_n = (n + 1) X_n, so the shipped moments are these two
    assert idla_exact_moments(n) == pytest.approx((ex2, (n + 1) ** 2 * ex2), rel=1e-12)


@pytest.mark.parametrize("n, reps", [(10, 10_000), (100, 100_000), (1000, 10_000)])
def test_finals_stay_on_the_support(n, reps):
    xs, probs = idla_law(n)
    x = finals(IDLASpec(n=n), 2, 0, reps)["x"]
    assert np.isin(x, xs[probs > 0.0]).all()


def test_finals_fit_the_law():
    # seed and threshold fixed before the first run
    n, reps, seed = 100, 100_000, 1
    xs, probs = idla_law(n)
    x = finals(IDLASpec(n=n), seed, 0, reps)["x"]
    counts = np.array([np.count_nonzero(x == v) for v in xs])
    expected = reps * probs
    # bins of expected count below 5 are pooled into one
    small = expected < 5.0
    assert expected[small].sum() >= 5.0
    observed = np.append(counts[~small], counts[small].sum())
    expected = np.append(expected[~small], expected[small].sum())
    result = stats.chisquare(observed, expected * (reps / expected.sum()))
    assert result.pvalue >= 1e-3


@pytest.mark.parametrize("a", [0.13, 0.2, 1 / 3, 9 / 16])
@pytest.mark.parametrize("n", HORIZONS)
def test_bounds_dominate_the_exact_tail(n, a):
    # every bound falls in x and the exact tail is a step function that
    # drops just past each attainable |X_n| = v, so the levels v/n and
    # v/sqrt(n) are the worst cases of the idla-scaled and idla-sqrt events
    xs, probs = idla_law(n)
    # |X_n| has the parity of n; the farthest tails underflow to 0.0
    for v in range(n % 2 or 2, n + 1, 2):
        tail = float(probs[np.abs(xs) >= v].sum())
        bounds = {
            "idla-scaled": idla_bounds(v / n, n, a)[0],
            "azuma": azuma_idla_bound(v / n, n),
            "idla-sqrt": idla_bounds(v / math.sqrt(n), n, a)[1],
        }
        for name, bound in bounds.items():
            assert tail <= bound, (name, v, tail, bound)
