"""Path-level martingale bookkeeping.

A :class:`MartingalePath` carries the cumulative martingale values together
with the total and predictable quadratic variation traces of a single
realization; :func:`accumulate` builds one from per-step increments and
conditional second moments.  The weighted normalization and the exponential
supermartingale weight are written with operators only, so one definition
takes the values of a path at one step as floats or the finals of many
replicates as arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import weight_b, weight_c

__all__ = ["MartingalePath", "accumulate", "s_weighted", "supermartingale_weight"]


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
    table = np.zeros((3, len(inc) + 1))
    table[:, 1:] = (inc, inc * inc, csm)
    # np.cumsum adds strictly left to right, the order in which the drivers
    # add the same values to their running totals
    m, qv, pqv = np.cumsum(table, axis=1, out=table)
    return MartingalePath(m=m, qv=qv, pqv=pqv)


def s_weighted(qv, pqv, a: float):
    """Weighted normalization S_n(a) = [M]_n + c(a) <M>_n, of floats or of arrays.

    The operand order is fixed: every caller gets the same bits.
    """
    return qv + weight_c(a) * pqv


def supermartingale_weight(m, qv, pqv, t: float, a: float):
    """Exponential weight exp(t M - (a t^2/2)[M] - (b(a) t^2/2)<M>), of floats
    or of arrays.

    The exponent is formed first and exponentiated once, so large |t| M
    cannot overflow intermediate terms; an exponent past the float range
    gives inf.
    """
    b = weight_b(a)
    with np.errstate(over="ignore"):
        return np.exp(t * m - 0.5 * a * t * t * qv - 0.5 * b * t * t * pqv)
