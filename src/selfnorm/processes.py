"""Exact simulators for the three application processes.

Each process is written once, as one step of its martingale decomposition:
``step(spec, x, u, k)`` maps the state before step k and that step's
uniforms to ``(x_new, increment, cond_second_moment, terms)``, where terms
are the step's summands of the process's own statistics.  A step uses only
operators (and ``_clip01`` for the learner's clamp), so the same definition
advances a Python float or a ``(B,)`` array of replicates.

Two drivers run the steps.  :func:`finals` advances a block of replicates
and keeps running totals of the increments, their squares, the conditional
second moments and the terms, from which it forms the end-of-horizon
summaries.  :func:`simulate` advances one replicate on floats, records every
step and sums the records with ``martingale._cumsum``, which adds the same
values from 0.0 in the same order; so the last entry of a trace equals its
replicate's finals bit for bit.  Both drivers raise ValueError when a
statistic they return is not finite.

Randomness comes from counter-based Philox streams keyed by (seed,
replicate index), with seed in [0, 2**63), so every replicate is an
independent stream: results depend only on (spec, seed, replicate), never on
how replicates are grouped into blocks.
"""

from __future__ import annotations

import io
import math
from array import array
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from .martingale import MartingalePath, _cumsum, accumulate

__all__ = [
    "AR1Spec",
    "IDLASpec",
    "LearnSpec",
    "PROCESSES",
    "make_spec",
    "require_finite",
    "ProcessTrace",
    "finals",
    "simulate",
    "ar1_simulate",
    "idla_simulate",
    "learning_simulate",
    "idla_exact_moments",
    "true_risk",
    "trace_to_csv",
    "uniform_rows",
    "ar1_finals",
    "idla_finals",
    "learning_finals",
]


@dataclass(frozen=True)
class AR1Spec:
    """Autoregression X_k = theta X_{k-1} + eps_k with centered two-point noise.

    eps_k is 2q with probability p and -2p with probability q = 1 - p, so the
    noise has mean 0 and variance sigma^2 = 4pq.  X_0 = 1 deterministically.
    """

    p: float
    theta: float
    n: int

    def __post_init__(self):
        if not 0.0 < self.p <= 0.5:
            raise ValueError(f"p must lie in (0, 1/2], got {self.p}")
        if self.n < 1:
            raise ValueError(f"horizon must be >= 1, got {self.n}")

    @property
    def q(self) -> float:
        return 1.0 - self.p

    @property
    def sigma2(self) -> float:
        return 4.0 * self.p * self.q


@dataclass(frozen=True)
class IDLASpec:
    """One-dimensional aggregation cluster, tracked through X_n = L_n + R_n."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"horizon must be >= 1, got {self.n}")


@dataclass(frozen=True)
class LearnSpec:
    """Online threshold learner on Uniform[0,1] inputs with label noise.

    The target labels are 1{x >= theta_star} flipped with probability eta;
    hypotheses are thresholds h_c(x) = 1{x >= c} under 0-1 loss, updated by
    c <- clamp(c + gamma0/sqrt(k) * (prediction - label)) on mistakes.
    """

    theta_star: float
    eta: float
    gamma0: float
    c0: float
    n: int

    def __post_init__(self):
        if not 0.0 <= self.theta_star <= 1.0:
            raise ValueError(f"theta_star must lie in [0, 1], got {self.theta_star}")
        if not 0.0 <= self.eta < 0.5:
            raise ValueError(f"eta must lie in [0, 1/2), got {self.eta}")
        if self.gamma0 <= 0.0:
            raise ValueError(f"gamma0 must be positive, got {self.gamma0}")
        if not 0.0 <= self.c0 <= 1.0:
            raise ValueError(f"c0 must lie in [0, 1], got {self.c0}")
        if self.n < 1:
            raise ValueError(f"horizon must be >= 1, got {self.n}")


ProcessSpec = AR1Spec | IDLASpec | LearnSpec

# Process names as the command line spells them.
PROCESSES = {"ar1": AR1Spec, "idla": IDLASpec, "learn": LearnSpec}


def make_spec(process: str, params) -> ProcessSpec:
    """Spec of the named process, each field read from the same-named
    attribute of params."""
    spec_type = PROCESSES.get(process)
    if spec_type is None:
        raise ValueError(f"unknown process {process!r}")
    return spec_type(**{f.name: getattr(params, f.name) for f in fields(spec_type)})


@dataclass(frozen=True)
class ProcessTrace:
    """Full record of a single realization.

    ``increments`` and ``cond_second_moments`` are the martingale
    decomposition; ``path`` is their accumulation; ``stats`` holds the
    process-specific series.
    """

    spec: ProcessSpec
    seed: int
    replicate: int
    increments: np.ndarray
    cond_second_moments: np.ndarray
    path: MartingalePath
    stats: dict[str, np.ndarray]


def uniform_rows(seed: int, rep_lo: int, rep_hi: int, cols: int) -> np.ndarray:
    """Uniform(0,1) draws for replicates rep_lo..rep_hi-1, one row each."""
    # numpy stores key=[seed, rep] as float64 from 2**63 on, merging seeds
    if not 0 <= seed < 2**63:
        raise ValueError(f"seed must lie in [0, 2**63), got {seed}")
    out = np.empty((rep_hi - rep_lo, cols))
    for i, rep in enumerate(range(rep_lo, rep_hi)):
        out[i] = np.random.Generator(np.random.Philox(key=[seed, rep])).random(cols)
    return out


def require_finite(arrays: dict[str, np.ndarray], what: str) -> None:
    """Raise ValueError naming each floating array of arrays that holds
    non-finite values, with their count."""
    counts = {
        k: int(np.count_nonzero(~np.isfinite(v)))
        for k, v in arrays.items()
        if np.issubdtype(v.dtype, np.floating)
    }
    bad = ", ".join(f"{k} in {count}" for k, count in counts.items() if count)
    if bad:
        raise ValueError(f"non-finite {what}: {bad}")


def true_risk(c: float | np.ndarray, theta_star: float, eta: float):
    """Closed-form 0-1 risk of the threshold hypothesis h_c: eta + (1-2 eta)|c - theta_star|."""
    return eta + (1.0 - 2.0 * eta) * abs(c - theta_star)


def _clip01(v):
    # builtins on a float, np.clip on an array: the same bits either way
    return min(1.0, max(0.0, v)) if isinstance(v, float) else np.clip(v, 0.0, 1.0)


def _ar1_step(spec: AR1Spec, x, u, k):
    eps = 2.0 * ((u[0] < spec.p) - spec.p)
    x_new = spec.theta * x + eps
    return x_new, x * eps, spec.sigma2 * x * x, (x * x, x * x_new)


def _ar1_sandwich(spec: AR1Spec, qv, pqv):
    """(p/q)<M>_k <= [M]_k <= (q/p)<M>_k, up to rounding."""
    tol = 1e-9 * np.maximum(qv, pqv) + 1e-12
    return (spec.p / spec.q * pqv <= qv + tol) & (qv <= spec.q / spec.p * pqv + tol)


def _idla_step(spec: IDLASpec, x, u, k):
    p_up = (k + 1 - x) / (2.0 * (k + 1))
    x_new = x + (2.0 * (u[0] < p_up) - 1.0)
    return x_new, (k + 1) * x_new - k * x, (k + 1.0) ** 2 - x * x, ()


def _learning_step(spec: LearnSpec, c, u, k):
    y = (u[0] >= spec.theta_star) ^ (u[1] < spec.eta)
    pred = u[0] >= c
    loss = 1.0 * (pred != y)
    risk = true_risk(c, spec.theta_star, spec.eta)
    c_new = _clip01(c + spec.gamma0 / math.sqrt(k) * (1.0 * pred - y))
    return c_new, risk - loss, risk * (1.0 - risk), (loss, risk)


def _ar1_series(spec: AR1Spec, xs, terms, sums):
    # theta_hat is 0/0 before the first step
    return {"x": xs, "theta_hat": np.concatenate(([np.nan], sums["sxy"][1:] / sums["sxx"][1:]))}


def _idla_series(spec: IDLASpec, xs, terms, sums):
    steps = np.arange(spec.n + 1, dtype=float)
    return {"x": xs, "l": (xs - steps) / 2.0, "r": (xs + steps) / 2.0}


def _learning_series(spec: LearnSpec, cs, terms, sums):
    steps = np.maximum(np.arange(spec.n + 1), 1)  # both averages are 0 at step 0
    return {
        "c": cs,
        "true_risk": terms["risk"],
        "loss": terms["loss"],
        "r_hat": sums["loss"] / steps,
        "r_bar": sums["risk"] / steps,
    }


@dataclass(frozen=True)
class _Dynamics:
    """One process for the two drivers.

    cols uniforms per step; the initial state init(spec); the step; the names
    of its terms; finals(spec, x, totals) from the state and the term totals
    at the horizon; series(spec, xs, terms, sums) from the recorded states,
    terms and running term sums (states and sums include step 0); the trace
    CSV columns; and invariants, name -> holds(spec, qv, pqv), which the
    block driver checks after every step.
    """

    cols: int
    init: Callable
    step: Callable
    terms: tuple[str, ...]
    finals: Callable
    series: Callable
    columns: tuple[str, ...]
    invariants: dict[str, Callable] = field(default_factory=dict)


# spec type: _Dynamics(cols, init, step, terms, finals, series, columns[, invariants])
_DYNAMICS = {
    AR1Spec: _Dynamics(
        1, lambda spec: 1.0, _ar1_step, ("sxx", "sxy"),
        lambda spec, x, s: {"theta_hat": s["sxy"] / s["sxx"]},
        _ar1_series, ("x", "theta_hat"), {"sandwich_ok": _ar1_sandwich},
    ),
    IDLASpec: _Dynamics(
        1, lambda spec: 0.0, _idla_step, (), lambda spec, x, s: {"x": x},
        _idla_series, ("x", "l", "r"),
    ),
    LearnSpec: _Dynamics(
        2, lambda spec: spec.c0, _learning_step, ("loss", "risk"),
        lambda spec, c, s: {"r_hat": s["loss"] / spec.n, "r_bar": s["risk"] / spec.n},
        _learning_series, ("c", "r_hat", "r_bar"),
    ),
}


def finals(spec: ProcessSpec, seed: int, rep_lo: int, rep_hi: int) -> dict[str, np.ndarray]:
    """End-of-horizon summaries for the block of replicates rep_lo..rep_hi-1."""
    dyn = _DYNAMICS[type(spec)]
    B = rep_hi - rep_lo
    # u[k - 1][i] is the i-th uniform of step k, one entry per replicate
    u = uniform_rows(seed, rep_lo, rep_hi, spec.n * dyn.cols)
    u = u.reshape(B, spec.n, dyn.cols).transpose(1, 2, 0)
    x = np.full(B, dyn.init(spec))
    # m, qv, pqv, then the terms
    totals = [0.0] * (3 + len(dyn.terms))
    checks = {name: np.ones(B, dtype=bool) for name in dyn.invariants}
    # an overflow turns statistics non-finite, which the caller reports
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, spec.n + 1):
            x, inc, csm, terms = dyn.step(spec, x, u[k - 1], k)
            for i, value in enumerate((inc, inc * inc, csm, *terms)):
                totals[i] = totals[i] + value
            for name, holds in dyn.invariants.items():
                checks[name] &= holds(spec, totals[1], totals[2])
        m, qv, pqv, *sums = totals
        stats = dyn.finals(spec, x, dict(zip(dyn.terms, sums)))
    return {"m": m, "qv": qv, "pqv": pqv, **stats, **checks}


def simulate(spec: ProcessSpec, seed: int, replicate: int = 0) -> ProcessTrace:
    """One replicate stepped on floats, with every step recorded.

    Raises ValueError when the path's m, qv or pqv is not finite.
    """
    dyn = _DYNAMICS[type(spec)]
    # a memoryview hands out floats one at a time, and the array('d') records
    # hold raw doubles, so no step keeps a Python object alive
    u = memoryview(uniform_rows(seed, replicate, replicate + 1, spec.n * dyn.cols)[0])
    x = dyn.init(spec)
    states, records = array("d", [x]), array("d")
    for k in range(1, spec.n + 1):
        x, inc, csm, terms = dyn.step(spec, x, u[(k - 1) * dyn.cols : k * dyn.cols], k)
        states.append(x)
        records.extend((inc, csm, *terms))
    inc, csm, *term_series = np.frombuffer(records).reshape(spec.n, -1).T
    terms = dict(zip(dyn.terms, term_series))
    # an overflow turns the path non-finite, which is reported below
    with np.errstate(over="ignore", invalid="ignore"):
        path = accumulate(inc, csm)
        sums = {name: _cumsum(values) for name, values in terms.items()}
        stats = dyn.series(spec, np.frombuffer(states), terms, sums)
    require_finite(
        {"m": path.m, "qv": path.qv, "pqv": path.pqv}, f"trace of {spec}, replicate {replicate}"
    )
    return ProcessTrace(
        spec=spec,
        seed=seed,
        replicate=replicate,
        increments=inc,
        cond_second_moments=csm,
        path=path,
        stats=stats,
    )


# Per-process names of the two drivers; each accepts any spec.
ar1_finals = idla_finals = learning_finals = finals
ar1_simulate = idla_simulate = learning_simulate = simulate


def idla_exact_moments(n: int) -> tuple[float, float]:
    """Exact (E[X_n^2], E[M_n^2]) = ((n+2)/3, (n+1)^2 (n+2)/3)."""
    if n < 1:
        raise ValueError(f"horizon must be >= 1, got {n}")
    ex2 = (n + 2.0) / 3.0
    return ex2, (n + 1.0) ** 2 * ex2


def trace_to_csv(trace: ProcessTrace) -> str:
    """Render a trace as CSV, one row per step (step 0 included)."""
    cols = _DYNAMICS[type(trace.spec)].columns
    buf = io.StringIO()
    buf.write("step,m,qv,pqv," + ",".join(cols) + "\r\n")
    for k in range(trace.path.n + 1):
        row = [str(k), repr(float(trace.path.m[k])), repr(float(trace.path.qv[k])), repr(float(trace.path.pqv[k]))]
        row += [repr(float(trace.stats[c][k])) for c in cols]
        buf.write(",".join(row) + "\r\n")
    return buf.getvalue()
