"""Running sums of per-step martingale records, kept for the benchmark tracer.

:func:`accumulate` is called by nothing in the package.  It stays because
``perfbench/trace_cli.py`` wraps it by name; ROADMAP items 1 and 2 retire that
tracer, and this module goes with it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["accumulate"]


def accumulate(increments, cond_second_moments) -> np.ndarray:
    """M_k, [M]_k and <M>_k for k = 0..n, as the rows of one (3, n+1) array,
    from per-step increments and conditional second moments."""
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
    return np.cumsum(table, axis=1, out=table)
