"""Exact simulators for the three application processes.

Each process exposes its martingale decomposition (per-step increments and
conditional second moments) next to its own statistics.  Randomness comes
from counter-based Philox streams keyed by (seed, replicate index), so every
replicate is an independent, scheduling-free stream: results depend only on
(spec, seed, replicate), never on worker count or evaluation order.

The vectorized ``*_finals`` kernels step a block of replicates at once and
return only end-of-horizon summaries; the single-path ``*_simulate``
functions replay replicate streams step by step and record full traces.
Both use compensated accumulation in the same order, so a single-path trace
agrees bit-for-bit with the corresponding row of a vectorized block.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, fields

import numpy as np

from .bounds import weight_c
from .martingale import MartingalePath, accumulate

__all__ = [
    "AR1Spec",
    "IDLASpec",
    "LearnSpec",
    "PROCESSES",
    "make_spec",
    "ProcessTrace",
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
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    out = np.empty((rep_hi - rep_lo, cols))
    for i, rep in enumerate(range(rep_lo, rep_hi)):
        out[i] = np.random.Generator(np.random.Philox(key=[seed, rep])).random(cols)
    return out


def _kadd(total: np.ndarray, comp: np.ndarray, x: np.ndarray) -> None:
    # one compensated-summation step, in place
    y = x - comp
    t = total + y
    comp[:] = (t - total) - y
    total[:] = t


def ar1_finals(spec: AR1Spec, seed: int, rep_lo: int, rep_hi: int) -> dict[str, np.ndarray]:
    """End-of-horizon summaries for a block of autoregression replicates."""
    u = uniform_rows(seed, rep_lo, rep_hi, spec.n)
    B = rep_hi - rep_lo
    p, q, s2 = spec.p, spec.q, spec.sigma2
    x = np.ones(B)
    m = np.zeros(B)
    qv = np.zeros(B)
    pqv = np.zeros(B)
    sxx = np.zeros(B)
    sxy = np.zeros(B)
    comp = {k: np.zeros(B) for k in ("m", "qv", "pqv", "sxx", "sxy")}
    sandwich_ok = np.ones(B, dtype=bool)
    lo_ratio, hi_ratio = p / q, q / p
    for k in range(1, spec.n + 1):
        eps = np.where(u[:, k - 1] < p, 2.0 * q, -2.0 * p)
        inc = x * eps
        _kadd(m, comp["m"], inc)
        _kadd(qv, comp["qv"], inc * inc)
        _kadd(pqv, comp["pqv"], s2 * x * x)
        _kadd(sxx, comp["sxx"], x * x)
        x_new = spec.theta * x + eps
        _kadd(sxy, comp["sxy"], x * x_new)
        x = x_new
        tol = 1e-9 * np.maximum(qv, pqv) + 1e-12
        sandwich_ok &= (lo_ratio * pqv <= qv + tol) & (qv <= hi_ratio * pqv + tol)
    return {
        "m": m,
        "qv": qv,
        "pqv": pqv,
        "theta_hat": sxy / sxx,
        "sandwich_ok": sandwich_ok,
    }


def idla_finals(spec: IDLASpec, seed: int, rep_lo: int, rep_hi: int) -> dict[str, np.ndarray]:
    """End-of-horizon summaries for a block of aggregation replicates."""
    u = uniform_rows(seed, rep_lo, rep_hi, spec.n)
    B = rep_hi - rep_lo
    x = np.zeros(B)
    m = np.zeros(B)
    qv = np.zeros(B)
    pqv = np.zeros(B)
    comp = {k: np.zeros(B) for k in ("m", "qv", "pqv")}
    for k in range(1, spec.n + 1):
        p_up = (k + 1 - x) / (2.0 * (k + 1))
        xi = np.where(u[:, k - 1] < p_up, 1.0, -1.0)
        x_new = x + xi
        inc = (k + 1) * x_new - k * x
        _kadd(m, comp["m"], inc)
        _kadd(qv, comp["qv"], inc * inc)
        _kadd(pqv, comp["pqv"], (k + 1.0) ** 2 - x * x)
        x = x_new
    return {"m": m, "qv": qv, "pqv": pqv, "x": x}


def true_risk(c: float | np.ndarray, theta_star: float, eta: float):
    """Closed-form 0-1 risk of the threshold hypothesis h_c: eta + (1-2 eta)|c - theta_star|."""
    return eta + (1.0 - 2.0 * eta) * np.abs(c - theta_star)


def learning_finals(spec: LearnSpec, seed: int, rep_lo: int, rep_hi: int) -> dict[str, np.ndarray]:
    """End-of-horizon summaries for a block of online-learning replicates."""
    u = uniform_rows(seed, rep_lo, rep_hi, 2 * spec.n)
    B = rep_hi - rep_lo
    c = np.full(B, spec.c0)
    m = np.zeros(B)
    qv = np.zeros(B)
    pqv = np.zeros(B)
    sum_loss = np.zeros(B)
    sum_risk = np.zeros(B)
    comp = {k: np.zeros(B) for k in ("m", "qv", "pqv", "loss", "risk")}
    for k in range(1, spec.n + 1):
        xk = u[:, 2 * (k - 1)]
        flip = u[:, 2 * (k - 1) + 1] < spec.eta
        y = (xk >= spec.theta_star) ^ flip
        pred = xk >= c
        loss = (pred != y).astype(float)
        risk = true_risk(c, spec.theta_star, spec.eta)
        inc = risk - loss
        _kadd(m, comp["m"], inc)
        _kadd(qv, comp["qv"], inc * inc)
        _kadd(pqv, comp["pqv"], risk * (1.0 - risk))
        _kadd(sum_loss, comp["loss"], loss)
        _kadd(sum_risk, comp["risk"], risk)
        gamma = spec.gamma0 / math.sqrt(k)
        c = np.clip(c + gamma * (pred.astype(float) - y.astype(float)), 0.0, 1.0)
    return {
        "m": m,
        "qv": qv,
        "pqv": pqv,
        "r_hat": sum_loss / spec.n,
        "r_bar": sum_risk / spec.n,
    }


def ar1_simulate(spec: AR1Spec, seed: int, replicate: int = 0) -> ProcessTrace:
    """Simulate one autoregression path with its full statistic series."""
    u = uniform_rows(seed, replicate, replicate + 1, spec.n)[0]
    p, q, s2 = spec.p, spec.q, spec.sigma2
    xs = np.empty(spec.n + 1)
    xs[0] = 1.0
    inc = np.empty(spec.n)
    csm = np.empty(spec.n)
    theta_hat = np.empty(spec.n + 1)
    theta_hat[0] = np.nan
    sxx = np.zeros(1)
    sxy = np.zeros(1)
    cxx = np.zeros(1)
    cxy = np.zeros(1)
    for k in range(1, spec.n + 1):
        eps = 2.0 * q if u[k - 1] < p else -2.0 * p
        x_prev = xs[k - 1]
        inc[k - 1] = x_prev * eps
        csm[k - 1] = s2 * x_prev * x_prev
        xs[k] = spec.theta * x_prev + eps
        _kadd(sxx, cxx, np.array([x_prev * x_prev]))
        _kadd(sxy, cxy, np.array([x_prev * xs[k]]))
        theta_hat[k] = sxy[0] / sxx[0]
    return ProcessTrace(
        spec=spec,
        seed=seed,
        replicate=replicate,
        increments=inc,
        cond_second_moments=csm,
        path=accumulate(inc, csm),
        stats={"x": xs, "theta_hat": theta_hat},
    )


def idla_simulate(spec: IDLASpec, seed: int, replicate: int = 0) -> ProcessTrace:
    """Simulate one aggregation path; reports X_k and the cluster ends L_k, R_k."""
    u = uniform_rows(seed, replicate, replicate + 1, spec.n)[0]
    xs = np.empty(spec.n + 1)
    xs[0] = 0.0
    inc = np.empty(spec.n)
    csm = np.empty(spec.n)
    for k in range(1, spec.n + 1):
        x_prev = xs[k - 1]
        p_up = (k + 1 - x_prev) / (2.0 * (k + 1))
        xi = 1.0 if u[k - 1] < p_up else -1.0
        xs[k] = x_prev + xi
        inc[k - 1] = (k + 1) * xs[k] - k * x_prev
        csm[k - 1] = (k + 1.0) ** 2 - x_prev * x_prev
    steps = np.arange(spec.n + 1, dtype=float)
    return ProcessTrace(
        spec=spec,
        seed=seed,
        replicate=replicate,
        increments=inc,
        cond_second_moments=csm,
        path=accumulate(inc, csm),
        stats={"x": xs, "l": (xs - steps) / 2.0, "r": (xs + steps) / 2.0},
    )


def learning_simulate(spec: LearnSpec, seed: int, replicate: int = 0) -> ProcessTrace:
    """Simulate one online-learning run with risk and loss series."""
    u = uniform_rows(seed, replicate, replicate + 1, 2 * spec.n)[0]
    cs = np.empty(spec.n + 1)
    cs[0] = spec.c0
    inc = np.empty(spec.n)
    csm = np.empty(spec.n)
    risks = np.empty(spec.n)
    losses = np.empty(spec.n)
    r_hat = np.empty(spec.n + 1)
    r_bar = np.empty(spec.n + 1)
    r_hat[0] = 0.0
    r_bar[0] = 0.0
    # compensated scalar sums so the series match the block kernel bitwise
    sum_loss = np.zeros(1)
    loss_comp = np.zeros(1)
    sum_risk = np.zeros(1)
    risk_comp = np.zeros(1)
    for k in range(1, spec.n + 1):
        c = cs[k - 1]
        xk = u[2 * (k - 1)]
        flip = u[2 * (k - 1) + 1] < spec.eta
        y = (xk >= spec.theta_star) ^ flip
        pred = xk >= c
        loss = float(pred != y)
        risk = float(true_risk(c, spec.theta_star, spec.eta))
        inc[k - 1] = risk - loss
        csm[k - 1] = risk * (1.0 - risk)
        risks[k - 1] = risk
        losses[k - 1] = loss
        _kadd(sum_loss, loss_comp, np.asarray([loss]))
        _kadd(sum_risk, risk_comp, np.asarray([risk]))
        r_hat[k] = sum_loss[0] / k
        r_bar[k] = sum_risk[0] / k
        gamma = spec.gamma0 / math.sqrt(k)
        cs[k] = min(1.0, max(0.0, c + gamma * (float(pred) - float(y))))
    return ProcessTrace(
        spec=spec,
        seed=seed,
        replicate=replicate,
        increments=inc,
        cond_second_moments=csm,
        path=accumulate(inc, csm),
        stats={
            "c": cs,
            "true_risk": risks,
            "loss": losses,
            "r_hat": r_hat,
            "r_bar": r_bar,
        },
    )


def simulate(spec: ProcessSpec, seed: int, replicate: int = 0) -> ProcessTrace:
    """Dispatch to the simulator matching the spec type."""
    if isinstance(spec, AR1Spec):
        return ar1_simulate(spec, seed, replicate)
    if isinstance(spec, IDLASpec):
        return idla_simulate(spec, seed, replicate)
    if isinstance(spec, LearnSpec):
        return learning_simulate(spec, seed, replicate)
    raise TypeError(f"unknown process spec {type(spec).__name__}")


def finals_kernel(spec: ProcessSpec):
    """Vectorized block kernel matching the spec type."""
    if isinstance(spec, AR1Spec):
        return ar1_finals
    if isinstance(spec, IDLASpec):
        return idla_finals
    if isinstance(spec, LearnSpec):
        return learning_finals
    raise TypeError(f"unknown process spec {type(spec).__name__}")


def idla_exact_moments(n: int) -> tuple[float, float]:
    """Exact (E[X_n^2], E[M_n^2]) = ((n+2)/3, (n+1)^2 (n+2)/3)."""
    if n < 1:
        raise ValueError(f"horizon must be >= 1, got {n}")
    ex2 = (n + 2.0) / 3.0
    return ex2, (n + 1.0) ** 2 * ex2


_TRACE_COLUMNS = {
    AR1Spec: ("x", "theta_hat"),
    IDLASpec: ("x", "l", "r"),
    LearnSpec: ("c", "r_hat", "r_bar"),
}


def trace_to_csv(trace: ProcessTrace) -> str:
    """Render a trace as CSV, one row per step (step 0 included)."""
    cols = _TRACE_COLUMNS[type(trace.spec)]
    buf = io.StringIO()
    buf.write("step,m,qv,pqv," + ",".join(cols) + "\r\n")
    for k in range(trace.path.n + 1):
        row = [str(k), repr(float(trace.path.m[k])), repr(float(trace.path.qv[k])), repr(float(trace.path.pqv[k]))]
        row += [repr(float(trace.stats[c][k])) for c in cols]
        buf.write(",".join(row) + "\r\n")
    return buf.getvalue()
