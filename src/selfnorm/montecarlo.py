"""Monte Carlo tail estimation and the table of checks behind ``selfnorm verify``.

Every replicate draws from its own Philox stream, so its finals depend only
on (spec, seed, replicate index).  ``simulate_finals`` cuts the replicates
into stripes of whole 64-replicate groups, one per usable CPU, and
``fan_out`` simulates the first in this process and each other one in a
forked child, each stripe in chunks.  A child's results cross its pipe as
pickled values, and they are concatenated in replicate order.  So every
estimate is the same for any chunk size and any number of processes.
``selfnorm simulate`` renders its row blocks through the same ``fan_out``.
No fork is made while another Python thread runs (``_cpus``); that check
cannot see native threads, but under the CLI none is alive when it forks,
as ``selfnorm.cli`` pins OpenBLAS to one thread, which starts no pool.

Each verification is one ``CHECKS`` entry, a grid of keys and a row per key.
A tail or coverage row reduces its event's indicators, which
``event_indicator`` evaluates, with ``summarize_indicators``; an expectation
row reduces its per-replicate values with ``estimate_expectation``.  Each
reducer returns its estimate as columns of the row.
"""

from __future__ import annotations

import math
import os
import pickle
import threading
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Iterator, Sequence

import numpy as np

from . import bounds, processes
from .processes import (
    ProcessSpec,
    idla_exact_moments,
    make_spec,
    require_finite,
)

__all__ = [
    "CHUNK",
    "hoeffding_epsilon",
    "summarize_indicators",
    "fan_out",
    "simulate_finals",
    "event_indicator",
    "estimate_expectation",
    "Check",
    "CHECKS",
    "verify",
]

# Replicates per simulation chunk, shared by the W processes that run a
# simulate_finals call, each stepping CHUNK // W at a time.  CHUNK bounds the
# replicates and processes.TILE the columns of the uniforms drawn at once, so
# their tiles hold at most CHUNK x TILE x 8 B = 8 MiB together, plus per
# process the 128 KB block a group of 64 replicates is drawn in.
CHUNK = 4096

# Fewest replicates an estimate accepts.
MIN_REPS = 100

# x-grid of the hermite check: selfnorm hermite's --x-max and --x-steps
# defaults, and the fixed grid of verify hermite.
HERMITE_X_MAX = 50.0
HERMITE_X_STEPS = 100_001


def hoeffding_epsilon(n_samples: int, alpha: float) -> float:
    """Half-width sqrt(log(2/alpha) / (2 n)) of the two-sided interval."""
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n_samples))


def summarize_indicators(indicators: np.ndarray, alpha: float) -> dict:
    """Row columns of the event frequency in per-replicate indicators: p_hat,
    its two-sided Hoeffding interval ci_lo..ci_hi, and n_samples."""
    n = len(indicators)
    p_hat = float(np.count_nonzero(indicators)) / n
    eps = hoeffding_epsilon(n, alpha)
    return {
        "p_hat": p_hat,
        "ci_lo": max(0.0, p_hat - eps),
        "ci_hi": min(1.0, p_hat + eps),
        "n_samples": n,
    }


def _cpus() -> int:
    """Usable CPUs; 1 without fork or sched_getaffinity in os, or while
    another thread runs (a fork can deadlock it)."""
    forks = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    return len(os.sched_getaffinity(0)) if forks and threading.active_count() == 1 else 1


def _workers(n_samples: int) -> int:
    """One process per usable CPU, at most one per group of 64 replicates."""
    return max(1, min(_cpus(), n_samples // processes._GROUP))


def _serve(fds: tuple[int, int], work: Callable, items: Sequence):
    """A forked worker: pickle (None, work(item)) to the pipe for each item,
    or (exc, None) and stop, exc being a ValueError's or MemoryError's
    message rebuilt as that base class.  It never returns into the caller
    and writes to no other file."""
    code = 3
    try:
        os.close(fds[0])
        with open(fds[1], "wb") as pipe:
            for item in items:
                try:
                    exc, value = None, work(item)
                except (ValueError, MemoryError) as error:
                    base = ValueError if isinstance(error, ValueError) else MemoryError
                    exc, value = base(str(error)), None
                pickle.dump((exc, value), pipe, pickle.HIGHEST_PROTOCOL)
                pipe.flush()  # the caller waits for the whole value
                if exc is not None:
                    break
        code = 0  # only once the pipe is flushed and closed
    finally:
        os._exit(code)


def fan_out(work: Callable, items: Sequence) -> Iterator:
    """Yield work(item), any picklable value, for each of items in order.
    Item i runs in process i % W, W = min(usable CPUs, len(items)): 0 is
    this process, and each other a forked child that pipes back pickled
    values and, blocked while its pipe is full, runs one item ahead at
    most.  A child's ValueError or MemoryError is raised again here, other
    failures as RuntimeError; every child is killed and reaped once the
    generator ends, fails or is closed."""
    w = min(_cpus(), len(items))
    children = {}  # pid: the read end of its pipe, in process order
    try:
        for j in range(1, w):
            fds = os.pipe()
            if (pid := os.fork()) == 0:
                _serve(fds, work, items[j::w])
            os.close(fds[1])
            children[pid] = open(fds[0], "rb")
        for i, item in enumerate(items):
            if i % w == 0:
                yield work(item)
                continue
            pid = list(children)[i % w - 1]
            try:
                exc, value = pickle.load(children[pid])
            except (EOFError, pickle.UnpicklingError):  # the child has stopped
                children.pop(pid).close()
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                message = f"simulation worker {pid} failed with exit status {code}"
                raise RuntimeError(message) from None
            if exc is not None:
                raise exc
            yield value
    finally:
        for pid, pipe in children.items():
            import signal  # loaded only once a child has run
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def simulate_finals(spec: ProcessSpec, seed: int, n_samples: int) -> dict[str, np.ndarray]:
    """End-of-horizon summaries for n_samples replicates in replicate order,
    from stripes of whole 64-replicate groups (see the module docstring).

    A non-finite summary (an overflowed or 0/0 statistic) is a configuration
    error, never a sample: it raises ValueError naming each such key.
    """
    w, group = _workers(n_samples), processes._GROUP
    cuts = [n_samples * i // w // group * group for i in range(w)] + [n_samples]
    step = max(1, CHUNK // w)

    def stripe(cut: tuple[int, int]) -> list[dict[str, np.ndarray]]:
        # the finals of replicates cut[0]..cut[1]-1, a chunk at a time;
        # processes.finals is looked up here, so a profiler may rebind it
        return [processes.finals(spec, seed, a, min(a + step, cut[1])) for a in range(*cut, step)]

    parts = [part for chunks in fan_out(stripe, list(zip(cuts, cuts[1:]))) for part in chunks]
    out = {k: np.concatenate([p[k] for p in parts]) for k in parts[0]}
    require_finite(out, f"finals of {spec} over {n_samples} replicates")
    return out


def event_indicator(event: Callable, run, x: float) -> np.ndarray:
    """Per-replicate indicator of a check's event at level x, from run's finals.

    A threshold scaled by a huge x may overflow to inf, which a finite
    statistic never reaches, so the indicator stays exact and the overflow
    is not reported.
    """
    with np.errstate(over="ignore"):
        return event(run, x)


def estimate_expectation(values: np.ndarray) -> dict:
    """Row columns of the Monte Carlo mean of per-replicate values: mc_mean
    and its standard error mc_se."""
    mean = float(np.mean(values))
    var = float(np.mean((values - mean) ** 2))
    return {"mc_mean": mean, "mc_se": math.sqrt(var / len(values))}


def _tail_check(process, reps, grid, event, bound_columns, dominating=(), **kw) -> Check:
    """A tail check: event(run, x) is the per-replicate indicator at level x,
    and each bound column maps to bound(run, x), None where it does not apply.
    Its row at x holds x, y (None when unset), bound_<name> per bound, the
    estimate, and satisfied.  The one place that decides whether a tail row
    holds: ci_lo must not exceed any dominating bound that applies, the
    bounds theory guarantees (all when dominating is empty).
    """

    def row(run, x: float) -> dict:
        cols = {name: bound(run, x) for name, bound in bound_columns.items()}
        dom = [name for name in dominating or cols if cols[name] is not None]
        est = summarize_indicators(event_indicator(event, run, x), run.alpha)
        return {
            "x": x,
            "y": run.y,
            **{f"bound_{name}": value for name, value in cols.items()},
            **est,
            "satisfied": all(est["ci_lo"] <= cols[name] for name in dom),
        }

    return Check(process, reps, grid, row, flags=("a", "alpha", "x_grid"), **kw)


# x-grid rules, levels, events and bounds of tail checks; run holds the flag
# values (a, alpha, seed, ...), the process spec and finals, and y.


def _quantiles(statistic: Callable):
    """The 0.5, 0.9 and 0.99 quantiles of a per-replicate statistic."""
    return lambda run: [float(np.quantile(statistic(run), q)) for q in (0.5, 0.9, 0.99)]


def _ar_limit(run) -> float:
    """sqrt(a d(a)), where the AR estimator bound's range ends."""
    return math.sqrt(run.a * bounds.ar_rate(run.a, run.spec.p))


def _set_y_median_s(run) -> None:
    run.y = float(np.median(bounds.s_weighted(run.finals["qv"], run.finals["pqv"], run.a)))
    if run.y <= 0.0:
        raise ValueError(
            "S_n(a) = [M]_n + c(a)<M>_n is not positive at the median; "
            "the martingale does not move on most replicates"
        )


def _set_y_pqv_margin(run) -> None:
    run.y = float(np.median(bounds.weight_c(run.a) * run.finals["pqv"] - run.finals["qv"]))
    if run.y <= 0.0:
        raise ValueError("c(a)<M>_n - [M]_n is not positive at the median; pick a smaller a")


# Events of the tail and learning checks: event(run, x) is the per-replicate
# indicator at level x (at delta for a learning check).


def _mart_abs(run, x: float) -> np.ndarray:
    """|M_n| >= x and S_n(a) <= y."""
    f = run.finals
    s = bounds.s_weighted(f["qv"], f["pqv"], run.a)
    return (np.abs(f["m"]) >= x) & (s <= run.y)


def _mart_ratio(run, x: float) -> np.ndarray:
    """|M_n|/S_n(a) >= x and S_n(a) >= y."""
    f = run.finals
    s = bounds.s_weighted(f["qv"], f["pqv"], run.a)
    return (np.abs(f["m"]) >= x * s) & (s >= run.y)


def _mart_pqv_ratio(run, x: float) -> np.ndarray:
    """|M_n|/<M>_n >= x and c(a)<M>_n >= [M]_n + y."""
    f = run.finals
    c = bounds.weight_c(run.a)
    return (np.abs(f["m"]) >= x * f["pqv"]) & (c * f["pqv"] >= f["qv"] + run.y)


def _mart_missing(run, x: float) -> np.ndarray:
    """|M_n|/sqrt(a S_n(a) + E[M_n^2]) >= x/sqrt(B_2), on IDLA's exact E[M_n^2]."""
    f = run.finals
    hp = bounds.HolderPair.make(2.0)
    s = bounds.s_weighted(f["qv"], f["pqv"], run.a)
    denom = np.sqrt(run.a * s + idla_exact_moments(run.spec.n)[1])
    return np.abs(f["m"]) >= x / math.sqrt(hp.B) * denom


def _learn_cover(run, delta: float) -> np.ndarray:
    """Average risk >= empirical risk + width(delta)."""
    width = bounds.learning_threshold(run.spec.n, run.a, delta, 1.0)
    return run.finals["r_bar"] >= run.finals["r_hat"] + width


def _learn_phi(run, delta: float) -> np.ndarray:
    """Average risk >= the inverted threshold at the empirical risk."""
    r_hat = np.minimum(run.finals["r_hat"], 1.0)
    thresholds = bounds.learning_phi_inverse(r_hat, run.spec.n, run.a, delta)
    return run.finals["r_bar"] >= thresholds


# Row rules of the checks that are not tail checks


def _hermite_row(run, a: float) -> dict:
    # selfnorm hermite sets the x-range; verify hermite keeps the defaults
    x_max = getattr(run, "x_max", HERMITE_X_MAX)
    # a grid of one point at 0 would pass without checking anything
    if not x_max > 0.0:
        raise ValueError(f"x-max must be positive, got {x_max}")
    # a grid wider than the largest float would be NaN, not a violation
    if not math.isfinite(2.0 * x_max):
        raise ValueError(f"x-max is too large for a grid of floats, got {x_max}")
    x_steps = getattr(run, "x_steps", HERMITE_X_STEPS)
    if x_steps < 2:
        raise ValueError(f"x-steps must be at least 2, got {x_steps}")
    b = bounds.weight_b(a)
    # pab_discriminant takes only b > 1/2
    if not b > 0.5:
        raise ValueError(f"a is too large for the hermite check: b(a) rounds to 1/2 at a = {a}")
    xs = np.linspace(-x_max, x_max, x_steps)
    margin = bounds.hermite_margin(xs, a)
    disc = bounds.pab_discriminant(a, b)
    # the discriminant is 0 at b(a) up to the rounding of its terms, which
    # grow like a^2; this sums their absolute values
    disc_scale = (2.0 * a + b) ** 2 / 4.0 + 2.0 * a * b * (a + b + 1.0)
    min_margin = float(margin.min())
    return {
        "a": a,
        "min_margin": min_margin,
        "argmin_x": float(xs[int(margin.argmin())]),
        "discriminant_at_b": disc,
        "satisfied": min_margin >= -1e-12 and abs(disc) <= 1e-12 * disc_scale,
    }


def _kearns_saul_row(run, p: float) -> dict:
    s = np.linspace(-20.0, 20.0, 8001)
    q = 1.0 - p
    lhs = p * np.exp(q * s) + q * np.exp(-p * s)
    rhs = np.exp(bounds.kearns_saul_phi(p) * s * s / 4.0)
    worst = float(np.max(lhs / rhs))
    return {"p": p, "max_ratio": worst, "satisfied": worst <= 1.0 + 1e-12}


def _ar_laplace_row(run, divisor: float) -> dict:
    spec = run.spec
    t = -1.0 / (divisor * spec.sigma2)
    rhs = math.exp(4.0 * spec.n * t * spec.p**2 * spec.sigma2)
    # a tiny p overflows t, and the bound is then 0 * inf
    if not (math.isfinite(t) and math.isfinite(rhs)):
        raise ValueError(
            f"p is too small for the ar-laplace check: t = {t}, bound = {rhs} at p = {spec.p}"
        )
    est = estimate_expectation(np.exp(t * run.finals["pqv"]))
    rel_se = est["mc_se"] / est["mc_mean"] if est["mc_mean"] > 0 else 0.0
    ok = est["mc_mean"] <= rhs * (1.0 + 3.0 * rel_se)
    return {"t": t, **est, "bound": rhs, "satisfied": ok}


def _supermartingale_row(run, key: tuple[float, float]) -> dict:
    a, t = key
    f = run.finals
    est = estimate_expectation(bounds.supermartingale_weight(f["m"], f["qv"], f["pqv"], t, a))
    ok = est["mc_mean"] <= 1.0 + 3.0 * est["mc_se"]
    return {"process": run.process, "a": a, "t": t, **est, "satisfied": ok}


def _coverage_check(event: Callable) -> Check:
    """A learning check: the frequency of event(run, delta) must not exceed
    delta + epsilon, so its ci_lo, as a tail row's, must not exceed delta."""

    def row(run, delta: float) -> dict:
        est = summarize_indicators(event_indicator(event, run, delta), run.alpha)
        return {"delta": delta, **est, "satisfied": est["ci_lo"] <= delta}

    return Check("learn", 10_000, lambda run: [run.delta], row, flags=("a", "delta", "alpha"))


@dataclass(frozen=True)
class Check:
    """One table the CLI prints: a grid of keys and a row per key.  Each
    ``CHECKS`` entry is a ``selfnorm verify`` id; ``cli.TABLES`` holds those
    of ``weights``, ``hermite`` and ``learning-table``, which are not ids.

    process is simulated once per command (None: nothing is simulated), with
    reps replicates unless --reps is given; any_process lets --process
    replace it.  prepare(run) then sets the level y.  grid is the tuple of
    row keys, or grid(run) computes them, and row(run, key) builds the
    output row of each key, every row with the same keys (None where a
    value does not apply).  flags names the destinations of the other flags
    the check reads: its parser has these and, if it simulates, --process,
    --reps, --seed and the process fields.  With x_grid among them,
    --x-grid replaces the grid.
    """

    process: str | None
    reps: int
    grid: tuple | Callable
    row: Callable
    prepare: Callable | None = None
    any_process: bool = False
    flags: tuple[str, ...] = ()


_SUPERMG_GRID = tuple(
    (a, t) for a in (1 / 3, 9 / 16) for t in (-0.05, -0.01, -0.001, 0.001, 0.01, 0.05)
)

# id: Check(process, reps, grid, row, ...), or a tail check's
# _tail_check(process, reps, grid, event, bound columns, ...)
CHECKS = {
    "hermite": Check(None, 0, lambda run: run.a_grid, _hermite_row, flags=("a_grid",)),
    "kearns-saul": Check(None, 0, (0.01, 0.1, 1 / 3, 0.499, 0.5), _kearns_saul_row),
    "weighted-tail": _tail_check(
        "idla", 100_000, _quantiles(lambda run: np.abs(run.finals["m"])), _mart_abs,
        {
            "weighted": lambda run, x: bounds.exp_tail_bound(x, run.y, run.a),
            # at c(a) = 1, S_n(a) is the normalizer [M]_n + <M>_n of BT2008
            "bt2008": lambda run, x: (
                bounds.bt2008_bound(x, run.y) if bounds.weight_c(run.a) == 1.0 else None
            ),
        },
        dominating=("weighted",), prepare=_set_y_median_s, any_process=True,
    ),
    "ratio-tail": _tail_check(
        "idla", 100_000,
        _quantiles(
            lambda run: np.abs(run.finals["m"])
            / bounds.s_weighted(run.finals["qv"], run.finals["pqv"], run.a)
        ),
        _mart_ratio,
        {"weighted": lambda run, x: bounds.ratio_tail_bound(x, run.y, run.a)},
        prepare=_set_y_median_s, any_process=True,
    ),
    "pqv-ratio": _tail_check(
        "idla", 100_000, _quantiles(lambda run: np.abs(run.finals["m"]) / run.finals["pqv"]),
        _mart_pqv_ratio, {"weighted": lambda run, x: bounds.pqv_ratio_bound(x, run.y, run.a)},
        prepare=_set_y_pqv_margin, any_process=True,
    ),
    "missing-factor": _tail_check(
        "idla", 100_000, (1.0, 1.5, 2.0, 2.5), _mart_missing,
        {"missing-factor": lambda run, x: bounds.missing_factor_bound(x, 2.0)[1]},
    ),
    "ar-estimator": _tail_check(
        "ar1", 100_000, lambda run: [f * _ar_limit(run) for f in (0.05, 0.1, 0.2, 0.4)],
        lambda run, x: np.abs(run.finals["theta_hat"] - run.spec.theta) >= x,
        {
            "weighted": lambda run, x: (
                bounds.ar_bound(x, run.spec.n, run.spec.p, run.a) if x <= _ar_limit(run) else None
            ),
            "gauss-ar": lambda run, x: bounds.gauss_ar_bound(x, run.spec.n),
        },
        dominating=("weighted",),
    ),
    "ar-laplace": Check("ar1", 10_000, (2.0, 4.0), _ar_laplace_row),
    "idla-scaled": _tail_check(
        "idla", 100_000, (0.1, 0.2, 0.3, 0.4),
        lambda run, x: np.abs(run.finals["x"]) / run.spec.n >= x,
        {
            "weighted": lambda run, x: bounds.idla_bounds(x, run.spec.n, run.a)[0],
            "azuma": lambda run, x: bounds.azuma_idla_bound(x, run.spec.n),
        },
    ),
    "idla-sqrt": _tail_check(
        "idla", 100_000, (0.5, 1.0, 1.5, 2.0),
        lambda run, x: np.abs(run.finals["x"]) / math.sqrt(run.spec.n) >= x,
        {"sqrt-scaled": lambda run, x: bounds.idla_bounds(x, run.spec.n, run.a)[1]},
    ),
    "learn-threshold": _coverage_check(_learn_cover),
    "learn-phi": _coverage_check(_learn_phi),
    "supermartingale": Check(
        "idla", 10_000, _SUPERMG_GRID, _supermartingale_row, any_process=True
    ),
}


def verify(check: Check, params) -> list[dict]:
    """Rows of one check for the command's flag values (params).

    A simulated check runs its process once; every row reads those finals.
    """
    run = SimpleNamespace(**vars(params), y=None)
    # a caller may leave out --process, --reps and --x-grid
    if check.process is not None:
        reps = getattr(params, "reps", None)
        reps = check.reps if reps is None else reps
        if reps < MIN_REPS:
            raise ValueError(f"reps must be at least {MIN_REPS}, got {reps}")
        run.process = getattr(params, "process", None) or check.process
        run.spec = make_spec(run.process, params)
        run.finals = simulate_finals(run.spec, params.seed, reps)
        if check.prepare is not None:
            check.prepare(run)
    # --x-grid replaces the grid of a check that reads it
    keys = (getattr(params, "x_grid", None) if "x_grid" in check.flags else None) or check.grid
    if callable(keys):
        keys = keys(run)
    return [check.row(run, key) for key in keys]
