"""Path-level martingale bookkeeping.

A :class:`MartingalePath` carries the cumulative martingale values together
with the total and predictable quadratic variation traces of a single
realization.  The weighted normalization and the exponential supermartingale
weight are evaluated on top of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import weight_b, weight_c

__all__ = ["MartingalePath", "accumulate", "s_weighted", "supermartingale_weight"]


def _cumsum(values: np.ndarray) -> np.ndarray:
    """Running sum of values, prepended with 0.

    np.cumsum adds strictly left to right, the order in which the block
    driver adds the same values to its running totals.
    """
    return np.cumsum(np.concatenate(([0.0], values)))


@dataclass(frozen=True)
class MartingalePath:
    """Cumulative traces M_k, [M]_k and <M>_k for one realization.

    All three arrays have length n+1 and start at 0; the variations are
    nondecreasing.
    """

    m: np.ndarray
    qv: np.ndarray
    pqv: np.ndarray

    def __post_init__(self):
        if not (len(self.m) == len(self.qv) == len(self.pqv)):
            raise ValueError("m, qv and pqv must have equal length")
        if self.m[0] != 0.0 or self.qv[0] != 0.0 or self.pqv[0] != 0.0:
            raise ValueError("paths must start at 0")
        self.m.flags.writeable = False
        self.qv.flags.writeable = False
        self.pqv.flags.writeable = False

    @property
    def n(self) -> int:
        return len(self.m) - 1


def accumulate(increments, cond_second_moments) -> MartingalePath:
    """Build a path from per-step increments and conditional second moments."""
    inc = np.asarray(increments, dtype=float)
    csm = np.asarray(cond_second_moments, dtype=float)
    if inc.shape != csm.shape:
        raise ValueError("increments and cond_second_moments must have equal length")
    if np.any(csm < 0.0):
        raise ValueError("conditional second moments must be nonnegative")
    return MartingalePath(
        m=_cumsum(inc),
        qv=_cumsum(inc * inc),
        pqv=_cumsum(csm),
    )


def _check_index(path: MartingalePath, k: int) -> None:
    if not 0 <= k <= path.n:
        raise IndexError(f"index {k} out of range for a path of length {path.n}")


def s_weighted(path: MartingalePath, a: float, k: int) -> float:
    """Weighted normalization S_k(a) = [M]_k + c(a) <M>_k."""
    _check_index(path, k)
    return float(path.qv[k] + weight_c(a) * path.pqv[k])


def supermartingale_weight(path: MartingalePath, t: float, a: float, k: int) -> float:
    """Exponential weight exp(t M_k - (a t^2/2)[M]_k - (b(a) t^2/2)<M>_k).

    Computed in log-space and exponentiated once, so large |t| M_k cannot
    overflow intermediate terms.
    """
    _check_index(path, k)
    b = weight_b(a)
    log_v = (
        t * float(path.m[k])
        - 0.5 * a * t * t * float(path.qv[k])
        - 0.5 * b * t * t * float(path.pqv[k])
    )
    try:
        return math.exp(log_v)
    except OverflowError:
        return float("inf")
