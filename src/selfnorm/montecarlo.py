"""Monte Carlo tail estimation, bound-vs-empirical comparison, and the table
of checks behind ``selfnorm verify``.

Replicates are simulated in fixed-size chunks whose contents depend only on
(spec, seed, replicate index), because every replicate draws from its own
Philox stream; chunk results are concatenated in chunk order, so every
estimate is the same for any chunk size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable

import numpy as np

from . import bounds, processes
from .processes import (
    AR1Spec,
    IDLASpec,
    LearnSpec,
    ProcessSpec,
    idla_exact_moments,
    make_spec,
    require_finite,
)

__all__ = [
    "CHUNK",
    "MCEstimate",
    "ExpectationEstimate",
    "TailEvent",
    "Functional",
    "BoundRow",
    "CompareConfig",
    "hoeffding_epsilon",
    "summarize_indicators",
    "simulate_finals",
    "estimate_event",
    "estimate_expectation",
    "compare_bounds",
    "Check",
    "CHECKS",
    "verify",
]

# Replicates per simulation chunk; bounds the memory of one chunk's uniforms.
CHUNK = 4096

# Fewest replicates an estimate accepts.
MIN_REPS = 100

# p-grid over which infimum-style bounds are minimized.
P_GRID = (1.5, 2.0, 3.0, 4.0, 8.0)


@dataclass(frozen=True)
class MCEstimate:
    """Empirical event probability with a two-sided Hoeffding interval."""

    p_hat: float
    n_samples: int
    ci_lo: float
    ci_hi: float
    alpha: float
    seed: int


@dataclass(frozen=True)
class ExpectationEstimate:
    """Monte Carlo mean of a per-path functional with its standard error."""

    mean: float
    se: float
    n_samples: int
    seed: int


def hoeffding_epsilon(n_samples: int, alpha: float) -> float:
    """Half-width sqrt(log(2/alpha) / (2 n)) of the two-sided interval."""
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n_samples))


def summarize_indicators(indicators: np.ndarray, alpha: float, seed: int) -> MCEstimate:
    """Turn per-replicate event indicators into an estimate with CI."""
    n = len(indicators)
    p_hat = float(np.count_nonzero(indicators)) / n
    eps = hoeffding_epsilon(n, alpha)
    return MCEstimate(
        p_hat=p_hat,
        n_samples=n,
        ci_lo=max(0.0, p_hat - eps),
        ci_hi=min(1.0, p_hat + eps),
        alpha=alpha,
        seed=seed,
    )


def simulate_finals(spec: ProcessSpec, seed: int, n_samples: int) -> dict[str, np.ndarray]:
    """End-of-horizon summaries for n_samples replicates, simulated in chunks
    and concatenated in chunk order.

    A non-finite summary (an overflowed or 0/0 statistic) is a configuration
    error, never a sample: it raises ValueError naming each such key.
    """
    # processes.finals is looked up at call time, so a profiler may rebind it
    parts = [
        processes.finals(spec, seed, lo, min(lo + CHUNK, n_samples))
        for lo in range(0, n_samples, CHUNK)
    ]
    out = {k: np.concatenate([p[k] for p in parts]) for k in parts[0]}
    require_finite(out, f"finals of {spec} over {n_samples} replicates")
    return out


@dataclass(frozen=True)
class TailEvent:
    """One tail event to estimate.

    Kinds and their parameters:
      mart-abs        |M_n| >= x and S_n(a) <= y           (x, y, a)
      mart-ratio      |M_n|/S_n(a) >= x and S_n(a) >= y    (x, y, a)
      mart-pqv-ratio  |M_n|/<M>_n >= x and c(a)<M>_n >= [M]_n + y  (x, y, a)
      mart-missing    |M_n|/sqrt(a S_n(a) + moment) >= x/sqrt(B_q) (x, a, p, moment)
      ar-estimator    |theta_hat - theta| >= x             (x; AR1 only)
      idla-scaled     |X_n|/n >= x                          (x; IDLA only)
      idla-sqrt       |X_n|/sqrt(n) >= x                    (x; IDLA only)
      learn-excess    avg risk - empirical risk >= x        (x; LEARN only)
      learn-cover     avg risk >= empirical + width(delta)  (a, delta; LEARN only)
      learn-phi       avg risk >= inverted threshold        (a, delta; LEARN only)

    moment is (E[|M_n|^p])^(2/p) for the missing-factor event.
    """

    kind: str
    x: float = math.nan
    y: float = math.nan
    a: float = math.nan
    delta: float = math.nan
    p: float = 2.0
    moment: float = math.nan


_EVENT_PROCESS = {
    "ar-estimator": AR1Spec,
    "idla-scaled": IDLASpec,
    "idla-sqrt": IDLASpec,
    "learn-excess": LearnSpec,
    "learn-cover": LearnSpec,
    "learn-phi": LearnSpec,
}


def event_indicator(spec: ProcessSpec, event: TailEvent, finals: dict[str, np.ndarray]) -> np.ndarray:
    """Per-replicate indicator of the event, from end-of-horizon summaries."""
    required = _EVENT_PROCESS.get(event.kind)
    if required is not None and not isinstance(spec, required):
        raise ValueError(f"event {event.kind!r} does not apply to {type(spec).__name__}")
    if event.kind == "mart-abs":
        s = finals["qv"] + bounds.weight_c(event.a) * finals["pqv"]
        return (np.abs(finals["m"]) >= event.x) & (s <= event.y)
    if event.kind == "mart-ratio":
        s = finals["qv"] + bounds.weight_c(event.a) * finals["pqv"]
        return (np.abs(finals["m"]) >= event.x * s) & (s >= event.y)
    if event.kind == "mart-pqv-ratio":
        c = bounds.weight_c(event.a)
        return (np.abs(finals["m"]) >= event.x * finals["pqv"]) & (
            c * finals["pqv"] >= finals["qv"] + event.y
        )
    if event.kind == "mart-missing":
        if not event.moment > 0.0:
            raise ValueError("mart-missing requires the moment term (E[|M|^p])^(2/p)")
        hp = bounds.HolderPair.make(event.p)
        s = finals["qv"] + bounds.weight_c(event.a) * finals["pqv"]
        denom = np.sqrt(event.a * s + event.moment)
        return np.abs(finals["m"]) >= event.x / math.sqrt(hp.B) * denom
    if event.kind == "ar-estimator":
        return np.abs(finals["theta_hat"] - spec.theta) >= event.x
    if event.kind == "idla-scaled":
        return np.abs(finals["x"]) / spec.n >= event.x
    if event.kind == "idla-sqrt":
        return np.abs(finals["x"]) / math.sqrt(spec.n) >= event.x
    if event.kind == "learn-excess":
        return finals["r_bar"] - finals["r_hat"] >= event.x
    if event.kind == "learn-cover":
        width = bounds.learning_threshold(spec.n, event.a, event.delta, 1.0)
        return finals["r_bar"] >= finals["r_hat"] + width
    if event.kind == "learn-phi":
        thresholds = np.array(
            [
                bounds.learning_phi_inverse(min(1.0, r), spec.n, event.a, event.delta)
                for r in finals["r_hat"]
            ]
        )
        return finals["r_bar"] >= thresholds
    raise ValueError(f"unknown event kind {event.kind!r}")


def estimate_event(
    spec: ProcessSpec,
    event: TailEvent,
    n_samples: int,
    seed: int,
    alpha: float = 0.05,
) -> MCEstimate:
    """Estimate the probability of a tail event over independent replicates."""
    if n_samples < MIN_REPS:
        raise ValueError(f"n_samples must be at least {MIN_REPS}")
    finals = simulate_finals(spec, seed, n_samples)
    return summarize_indicators(event_indicator(spec, event, finals), alpha, seed)


@dataclass(frozen=True)
class Functional:
    """Per-path functional to average.

    Kinds: supermg-weight (t, a), laplace-s (x, a), laplace-pqv (t),
    second-moment, pth-moment (p).  k, when given, truncates the horizon.
    """

    kind: str
    t: float = math.nan
    a: float = math.nan
    x: float = math.nan
    p: float = 2.0
    k: int | None = None


def _mean_se(values: np.ndarray, seed: int) -> ExpectationEstimate:
    n = len(values)
    mean = float(np.mean(values))
    var = float(np.mean((values - mean) ** 2))
    return ExpectationEstimate(mean=mean, se=math.sqrt(var / n), n_samples=n, seed=seed)


def estimate_expectation(
    spec: ProcessSpec, functional: Functional, n_samples: int, seed: int
) -> ExpectationEstimate:
    """Monte Carlo mean and standard error of a per-path functional."""
    if n_samples < MIN_REPS:
        raise ValueError(f"n_samples must be at least {MIN_REPS}")
    if functional.k is not None:
        if not 1 <= functional.k <= spec.n:
            raise ValueError(f"k must lie in [1, {spec.n}]")
        spec = type(spec)(**{**spec.__dict__, "n": functional.k})
    return _expectation(functional, simulate_finals(spec, seed, n_samples), seed)


def _expectation(
    functional: Functional, finals: dict[str, np.ndarray], seed: int
) -> ExpectationEstimate:
    """Mean and standard error of a functional over simulated finals."""
    m, qv, pqv = finals["m"], finals["qv"], finals["pqv"]
    kind = functional.kind
    if kind == "supermg-weight":
        t, a = functional.t, functional.a
        b = bounds.weight_b(a)
        values = np.exp(t * m - 0.5 * a * t * t * qv - 0.5 * b * t * t * pqv)
        return _mean_se(values, seed)
    if kind == "laplace-s":
        # right-hand side of the infimum bound, minimized over the fixed p-grid
        x, a = functional.x, functional.a
        if not x > 0.0:
            raise ValueError("laplace-s requires positive x")
        s = qv + bounds.weight_c(a) * pqv
        best: ExpectationEstimate | None = None
        for p in P_GRID:
            vals = np.exp(-(p - 1.0) * x * x * s / (2.0 * a))
            est = _mean_se(vals, seed)
            rhs = 2.0 * est.mean ** (1.0 / p)
            rhs_se = (2.0 / p) * est.mean ** (1.0 / p - 1.0) * est.se if est.mean > 0 else 0.0
            cand = ExpectationEstimate(mean=rhs, se=rhs_se, n_samples=est.n_samples, seed=seed)
            if best is None or cand.mean < best.mean:
                best = cand
        return best
    if kind == "laplace-pqv":
        return _mean_se(np.exp(functional.t * pqv), seed)
    if kind == "second-moment":
        return _mean_se(m * m, seed)
    if kind == "pth-moment":
        return _mean_se(np.abs(m) ** functional.p, seed)
    raise ValueError(f"unknown functional kind {kind!r}")


@dataclass(frozen=True)
class CompareConfig:
    a: float
    n_samples: int
    seed: int
    alpha: float = 0.05


@dataclass(frozen=True)
class BoundRow:
    """One threshold with every applicable bound and the empirical estimate.

    satisfied is True iff ci_lo does not exceed any bound listed in
    dominating (the bounds theory guarantees)."""

    x: float
    bounds: dict[str, float] = field(default_factory=dict)
    dominating: tuple[str, ...] = ()
    empirical: MCEstimate | None = None
    satisfied: bool = True

    def as_dict(self, y: float | None = None) -> dict:
        """Output row: x, y when given, bound_<name> per bound, the estimate."""
        head = {"x": self.x} if y is None else {"x": self.x, "y": y}
        cols = {f"bound_{name}": value for name, value in self.bounds.items()}
        return {**head, **cols, **_estimate_columns(self.empirical), "satisfied": self.satisfied}


def _estimate_columns(est: MCEstimate) -> dict:
    return {"p_hat": est.p_hat, "ci_lo": est.ci_lo, "ci_hi": est.ci_hi, "n_samples": est.n_samples}


def _bound_row(run, x: float, check: Check) -> BoundRow:
    """The one place that decides whether a tail row holds: ci_lo must not
    exceed any dominating bound."""
    cols = {name: bound(run, x) for name, bound in check.bounds.items()}
    cols = {name: value for name, value in cols.items() if value is not None}
    dom = tuple(name for name in check.dominating or cols if name in cols)
    event = TailEvent(check.event, x=x, y=run.y, a=run.a, moment=run.moment)
    est = summarize_indicators(event_indicator(run.spec, event, run.finals), run.alpha, run.seed)
    ok = all(est.ci_lo <= cols[name] for name in dom)
    return BoundRow(x=x, bounds=cols, dominating=dom, empirical=est, satisfied=ok)


def compare_bounds(spec: ProcessSpec, x_grid, config: CompareConfig) -> list[BoundRow]:
    """One BoundRow per threshold, sharing a single simulation run."""
    xs = list(x_grid)
    if not xs:
        raise ValueError("x_grid must be nonempty")
    finals = simulate_finals(spec, config.seed, config.n_samples)
    run = SimpleNamespace(**vars(config), spec=spec, finals=finals, y=None, moment=math.nan)
    return [_bound_row(run, x, _COMPARE_CHECKS[type(spec)]) for x in xs]


# x-grid rules, levels and bounds of tail checks; run holds the flag values
# (a, alpha, seed, ...), the process spec and finals, y and moment.


def _quantiles(statistic: Callable):
    """The 0.5, 0.9 and 0.99 quantiles of a per-replicate statistic."""
    return lambda run: [float(np.quantile(statistic(run), q)) for q in (0.5, 0.9, 0.99)]


def _ar_limit(run) -> float:
    """sqrt(a d(a)), where the AR estimator bound's range ends."""
    return math.sqrt(run.a * bounds.ar_rate(run.a, run.spec.p))


def _s(run) -> np.ndarray:
    return run.finals["qv"] + bounds.weight_c(run.a) * run.finals["pqv"]


def _set_y_median_s(run) -> None:
    run.y = float(np.median(_s(run)))


def _set_y_pqv_margin(run) -> None:
    run.y = float(np.median(bounds.weight_c(run.a) * run.finals["pqv"] - run.finals["qv"]))
    if run.y <= 0.0:
        raise ValueError("c(a)<M>_n - [M]_n is not positive at the median; pick a larger a")


def _set_idla_moment(run) -> None:
    if not isinstance(run.spec, IDLASpec):
        raise ValueError("missing-factor verification runs on the idla process")
    run.moment = idla_exact_moments(run.spec.n)[1]


# Row rules of the checks that are not tail checks


def _hermite_row(run, a: float) -> dict:
    # selfnorm hermite sets the x-range; verify hermite keeps these defaults
    x_max = getattr(run, "x_max", 50.0)
    xs = np.linspace(-x_max, x_max, getattr(run, "x_steps", 100_001))
    b = bounds.weight_b(a)
    margin = (1.0 + xs + 0.5 * b * xs * xs) - np.exp(xs - 0.5 * a * xs * xs)
    disc = bounds.pab_discriminant(a, b)
    min_margin = float(margin.min())
    return {
        "a": a,
        "min_margin": min_margin,
        "argmin_x": float(xs[int(margin.argmin())]),
        "discriminant_at_b": disc,
        "satisfied": min_margin >= -1e-12 and abs(disc) <= 1e-10,
    }


def _kearns_saul_row(run, p: float) -> dict:
    s = np.linspace(-20.0, 20.0, 4001)
    q = 1.0 - p
    lhs = p * np.exp(q * s) + q * np.exp(-p * s)
    rhs = np.exp(bounds.kearns_saul_phi(p) * s * s / 4.0)
    worst = float(np.max(lhs / rhs))
    return {"p": p, "max_ratio": worst, "satisfied": worst <= 1.0 + 1e-12}


def _ar_laplace_row(run, divisor: float) -> dict:
    spec = run.spec
    t = -1.0 / (divisor * spec.sigma2)
    est = _expectation(Functional("laplace-pqv", t=t), run.finals, run.seed)
    rhs = math.exp(4.0 * spec.n * t * spec.p**2 * spec.sigma2)
    rel_se = est.se / est.mean if est.mean > 0 else 0.0
    ok = est.mean <= rhs * (1.0 + 3.0 * rel_se)
    return {"t": t, "mc_mean": est.mean, "mc_se": est.se, "bound": rhs, "satisfied": ok}


def _supermartingale_row(run, key: tuple[float, float]) -> dict:
    a, t = key
    est = _expectation(Functional("supermg-weight", t=t, a=a), run.finals, run.seed)
    ok = est.mean <= 1.0 + 3.0 * est.se
    return {
        "process": run.process, "a": a, "t": t, "mc_mean": est.mean, "mc_se": est.se, "satisfied": ok
    }


def _coverage_row(kind: str):
    """Rule of a learning check: the event's frequency at delta must not
    exceed delta + epsilon."""

    def row(run, delta: float) -> dict:
        event = TailEvent(kind, a=run.a, delta=delta)
        indicators = event_indicator(run.spec, event, run.finals)
        est = summarize_indicators(indicators, run.alpha, run.seed)
        ok = est.p_hat <= delta + hoeffding_epsilon(est.n_samples, run.alpha)
        return {"delta": delta, **_estimate_columns(est), "satisfied": ok}

    return row


@dataclass(frozen=True)
class Check:
    """One ``selfnorm verify`` id.

    process is simulated once per command (None: nothing is simulated), with
    reps replicates unless --reps is given; any_process lets --process
    replace it.  prepare(run) then sets the level y or the moment.  grid is
    the tuple of row keys, or grid(run) computes them.  A tail check names
    its event and maps each bound column to bound(run, x), None where the
    bound does not apply; dominating (all when empty) are the bounds theory
    guarantees, and --x-grid replaces its grid.  Any other check builds each
    row with row(run, key).
    """

    process: str | None
    reps: int
    grid: tuple | Callable
    event: str | None = None
    bounds: dict[str, Callable] = field(default_factory=dict)
    dominating: tuple[str, ...] = ()
    row: Callable | None = None
    prepare: Callable | None = None
    any_process: bool = False


_SUPERMG_GRID = tuple(
    (a, t) for a in (1 / 3, 9 / 16) for t in (-0.05, -0.01, -0.001, 0.001, 0.01, 0.05)
)

# id: Check(process, reps, grid, [event, bound columns], ...)
CHECKS = {
    "hermite": Check(None, 0, lambda run: run.a_grid, row=_hermite_row),
    "kearns-saul": Check(None, 0, (0.01, 0.1, 1 / 3, 0.499, 0.5), row=_kearns_saul_row),
    "weighted-tail": Check(
        "idla", 100_000, _quantiles(lambda run: np.abs(run.finals["m"])), "mart-abs",
        {"weighted": lambda run, x: bounds.exp_tail_bound(x, run.y, run.a)},
        prepare=_set_y_median_s, any_process=True,
    ),
    "ratio-tail": Check(
        "idla", 100_000, _quantiles(lambda run: np.abs(run.finals["m"]) / _s(run)), "mart-ratio",
        {"weighted": lambda run, x: bounds.ratio_tail_bound(x, run.y, run.a)},
        prepare=_set_y_median_s, any_process=True,
    ),
    "pqv-ratio": Check(
        "idla", 100_000, _quantiles(lambda run: np.abs(run.finals["m"]) / run.finals["pqv"]),
        "mart-pqv-ratio", {"weighted": lambda run, x: bounds.pqv_ratio_bound(x, run.y, run.a)},
        prepare=_set_y_pqv_margin, any_process=True,
    ),
    "missing-factor": Check(
        "idla", 100_000, (1.0, 1.5, 2.0, 2.5), "mart-missing",
        {"missing-factor": lambda run, x: bounds.missing_factor_bound(x, 2.0)[1]},
        prepare=_set_idla_moment, any_process=True,
    ),
    "ar-estimator": Check(
        "ar1", 100_000, lambda run: [f * _ar_limit(run) for f in (0.05, 0.1, 0.2, 0.4)],
        "ar-estimator",
        {
            "weighted": lambda run, x: (
                bounds.ar_bound(x, run.spec.n, run.spec.p, run.a) if x <= _ar_limit(run) else None
            ),
            "gauss-ar": lambda run, x: bounds.baseline_bound("GAUSS_AR", x, run.spec.n),
        },
        dominating=("weighted",),
    ),
    "ar-laplace": Check("ar1", 10_000, (2.0, 4.0), row=_ar_laplace_row),
    "idla-scaled": Check(
        "idla", 100_000, (0.1, 0.2, 0.3, 0.4), "idla-scaled",
        {
            "weighted": lambda run, x: bounds.idla_bounds(x, run.spec.n, run.a)[0],
            "azuma": lambda run, x: bounds.baseline_bound("AZUMA_IDLA", x, run.spec.n),
        },
    ),
    "idla-sqrt": Check(
        "idla", 100_000, (0.5, 1.0, 1.5, 2.0), "idla-sqrt",
        {"sqrt-scaled": lambda run, x: bounds.idla_bounds(x, run.spec.n, run.a)[1]},
    ),
    "learn-threshold": Check(
        "learn", 10_000, lambda run: [run.delta], row=_coverage_row("learn-cover")
    ),
    "learn-phi": Check("learn", 10_000, lambda run: [run.delta], row=_coverage_row("learn-phi")),
    "supermartingale": Check(
        "idla", 10_000, _SUPERMG_GRID, row=_supermartingale_row, any_process=True
    ),
}

# compare_bounds on the learning process bounds the excess risk; no verify id
# runs it.
_LEARN_EXCESS = Check(
    "learn", 0, (), "learn-excess",
    {
        "weighted": lambda run, x: min(
            1.0, math.exp(-run.spec.n * x * x / (2.0 * run.a * (1.0 + bounds.weight_c(run.a))))
        ),
        "cbc": lambda run, x: min(1.0, math.exp(-run.spec.n * x * x / 2.0)),
    },
)
_COMPARE_CHECKS = {
    AR1Spec: CHECKS["ar-estimator"],
    IDLASpec: CHECKS["idla-scaled"],
    LearnSpec: _LEARN_EXCESS,
}


def verify(check: Check, params) -> list[dict]:
    """Rows of one check for the command's flag values (params).

    A simulated check runs its process once; every row reads those finals.
    """
    run = SimpleNamespace(**vars(params), y=None, moment=math.nan)
    if check.process is not None:
        reps = check.reps if params.reps is None else params.reps
        if reps < MIN_REPS:
            raise ValueError(f"reps must be at least {MIN_REPS}, got {reps}")
        run.process = (check.any_process and params.process) or check.process
        run.spec = make_spec(run.process, params)
        run.finals = simulate_finals(run.spec, params.seed, reps)
        if check.prepare is not None:
            check.prepare(run)
    if check.event is not None and params.x_grid:
        keys = params.x_grid
    else:
        keys = check.grid(run) if callable(check.grid) else check.grid
    if check.event is None:
        return [check.row(run, key) for key in keys]
    return [_bound_row(run, x, check).as_dict(run.y) for x in keys]
