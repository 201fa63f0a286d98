"""Exact simulators for the three application processes.

Each process is its spec class, written once as one step of its martingale
decomposition and one set of statistics.  A step reads ``spec.cols``
uniforms, and the state starts at ``spec.x0``.  ``spec.step(x, u, k)`` maps
the state before step k and that step's uniforms to ``(x_new, increment,
cond_second_moment, terms)``, where terms are the step's summands of the
process's statistics, named by ``spec.terms``; ``spec.stats(x, sums, k)``
forms the statistics after k steps from the state and the running sums of
the terms, and its keys, in order, are the trace CSV columns after m, qv and
pqv.  Both use only operations that round the same way on floats and on
arrays: +, -, *, /, comparisons, ``abs``, clipping (``_clip01``) and sqrt
(``_sqrt``).  So the same definition works on Python floats or on arrays,
with the same bits; numpy's array ``exp``, ``log1p`` and ``**`` do not
always round as libm's float results do, nor alike on every SIMD path, so a
row value takes an array exp from ``bounds.libm_exp``, which gives libm's.
IDLA's step compares its uniform against ``IDLASpec.up``, the one
definition of its up-probability.

Two drivers run the steps.  :func:`finals` advances a block of replicates
and keeps running totals of the increments, their squares, the conditional
second moments and the terms, and calls ``stats`` once at the horizon.
:func:`simulate` advances one replicate on floats and keeps only its state
path, one float per step.  Each span of ``TILE`` steps is then rebuilt by
one array ``step`` over its states and the uniforms it was stepped with,
and ``np.cumsum`` sums the records from the totals carried into the span,
adding the same values in the same order; so the last entry of a trace
equals its replicate's finals bit for bit.  That rebuild checks the path and
keeps the totals at every ``TILE``-th step.  :meth:`ProcessTrace.columns`,
the one reader of a trace's rows, rebuilds any range of them from those,
redrawing the whole spans that hold it.
:func:`simulate` raises ValueError when its path is not finite, and
``montecarlo.simulate_finals`` when any statistic of the finals is not.

Randomness comes from counter-based Philox, with seed in [0, 2**63).  The
columns of a replicate are cut into tiles of ``TILE``; tile t of replicate r
is keyed by (seed, r // 64) and starts at counter ((r % 64) * q, t), q being
the counter values the tile's width takes (see :func:`uniform_rows`).  That
map from (replicate, column) to (key, counter, lane) is one-to-one, so every
replicate is an independent stream, and results depend only on (spec, seed,
replicate), never on how replicates are grouped into blocks; the 64
replicates sharing a key are adjacent runs, so a block's tile takes one
generator call per 64 replicates.  :func:`finals` draws its block one tile
at a time and :func:`simulate` its replicate ``TILE`` steps at a time; both
cut the horizon into the same tiles, so their values agree, and a redraw of
the same tiles is exact.  The uniforms held do not grow with the horizon.
A tile is stored replicate-minor (Fortran order), so each step of
:func:`finals` reads its uniforms as one contiguous vector.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

# Uniform columns per tile, a multiple of 4 and of every process's uniforms
# per step.  Part of the stream definition (see uniform_rows); it bounds the
# memory of one chunk's uniforms along the horizon.
TILE = 256

# Replicates that share a Philox key, their runs adjacent within each tile.
# Part of the stream definition.
GROUP = 64

# Each thread's Philox, Generator and state dict, built by uniform_rows on
# first use; it assigns the whole state before every draw.
_philox = threading.local()


@dataclass(frozen=True)
class AR1Spec:
    """Autoregression X_k = theta X_{k-1} + eps_k with centered two-point noise.

    eps_k is 2q with probability p and -2p with probability q = 1 - p, so the
    noise has mean 0 and variance sigma^2 = 4pq.  X_0 = 1 deterministically.
    """

    p: float = 0.5
    theta: float = 0.5
    n: int = 100

    cols: ClassVar[int] = 1
    terms: ClassVar[tuple[str, ...]] = ("sxx", "sxy")
    x0: ClassVar[float] = 1.0

    def __post_init__(self):
        if not 0.0 < self.p <= 0.5:
            raise ValueError(f"p must lie in (0, 1/2], got {self.p}")
        if self.n < 1:
            raise ValueError(f"horizon must be >= 1, got {self.n}")

    @property
    def q(self) -> float:
        return 1.0 - self.p

    @functools.cached_property
    def sigma2(self) -> float:
        # cached: the float step of simulate reads it once per step
        return 4.0 * self.p * self.q

    def step(self, x, u, k):
        eps = 2.0 * ((u[0] < self.p) - self.p)
        x_new = self.theta * x + eps
        return x_new, x * eps, self.sigma2 * x * x, (x * x, x * x_new)

    def stats(self, x, sums, k):
        # theta_hat is 0/0 = nan before the first step
        return {"x": x, "theta_hat": sums["sxy"] / sums["sxx"]}


@dataclass(frozen=True)
class IDLASpec:
    """One-dimensional aggregation cluster, tracked through X_n = L_n + R_n."""

    n: int = 100

    cols: ClassVar[int] = 1
    terms: ClassVar[tuple[str, ...]] = ()
    x0: ClassVar[float] = 0.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"horizon must be >= 1, got {self.n}")

    def up(self, x, k):
        """Probability that step k moves X up by 1 from X_{k-1} = x (else
        down by 1), so that E[X_k | X_{k-1}] = k/(k+1) X_{k-1}."""
        return (k + 1 - x) / (2.0 * (k + 1))

    def step(self, x, u, k):
        x_new = x + (2.0 * (u[0] < self.up(x, k)) - 1.0)
        # a product, not ** 2, by the rule on a step's operations above
        return x_new, (k + 1) * x_new - k * x, (k + 1.0) * (k + 1.0) - x * x, ()

    def stats(self, x, sums, k):
        return {"x": x, "l": (x - k) / 2.0, "r": (x + k) / 2.0}


@dataclass(frozen=True)
class LearnSpec:
    """Online threshold learner on Uniform[0,1] inputs with label noise.

    The target labels are 1{x >= theta_star} flipped with probability eta;
    hypotheses are thresholds h_c(x) = 1{x >= c} under 0-1 loss, updated by
    c <- clamp(c + gamma0/sqrt(k) * (prediction - label)) on mistakes.
    """

    theta_star: float = 0.5
    eta: float = 0.1
    gamma0: float = 0.5
    c0: float = 0.0
    n: int = 100

    cols: ClassVar[int] = 2
    terms: ClassVar[tuple[str, ...]] = ("loss", "true_risk")

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

    @property
    def x0(self) -> float:
        return self.c0

    def step(self, c, u, k):
        y = (u[0] >= self.theta_star) ^ (u[1] < self.eta)
        pred = u[0] >= c
        loss = 1.0 * (pred != y)
        risk = true_risk(c, self.theta_star, self.eta)
        c_new = _clip01(c + self.gamma0 / _sqrt(k) * (1.0 * pred - y))
        return c_new, risk - loss, risk * (1.0 - risk), (loss, risk)

    def stats(self, c, sums, k):
        steps = np.maximum(k, 1)  # both averages are 0 at step 0
        return {"c": c, "r_hat": sums["loss"] / steps, "r_bar": sums["true_risk"] / steps}


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
    """One realization, held as its state path.

    ``states`` holds the state at steps 0..n, and ``totals[s]`` the running
    m, qv, pqv and term sums after step min(s * TILE, n).  :meth:`columns`
    rebuilds any range of rows from these, and is the one reader of a
    trace's rows, so a trace costs one float per step.
    """

    spec: ProcessSpec
    seed: int
    replicate: int
    states: np.ndarray
    totals: np.ndarray

    def columns(self, lo: int = 0, hi: int | None = None) -> dict[str, np.ndarray]:
        """m, qv, pqv and the statistics at steps lo..hi-1, hi defaulting
        to past the last; a range past the horizon is cut at it.

        The rows are rebuilt from the totals at the last multiple of
        ``TILE`` at or before lo, through the end of the span that holds
        hi-1, so a range costs its own length and less than two ``TILE``
        more.  A draw that ended inside a span would cut its last tile
        narrower than :func:`simulate` drew it, and a tile's values depend
        on its width.
        """
        n = self.spec.n
        hi = n + 1 if hi is None else min(hi, n + 1)
        lo = min(lo, hi)
        k0 = lo - lo % TILE
        k1 = min(n, -(-max(k0, hi - 1) // TILE) * TILE)
        u = _step_uniforms(self.spec, self.seed, self.replicate, k0, k1)
        sums = _running(self.spec, self.states, u, k0, self.totals[k0 // TILE])
        m, qv, pqv, *term_sums = sums[:, lo - k0 : hi - k0]
        with np.errstate(over="ignore", invalid="ignore"):
            stats = self.spec.stats(
                self.states[lo:hi], dict(zip(self.spec.terms, term_sums)), np.arange(lo, hi)
            )
        return {"m": m, "qv": qv, "pqv": pqv, **stats}


def uniform_rows(seed: int, rep_lo: int, rep_hi: int, cols: int, col_lo: int = 0) -> np.ndarray:
    """Uniform(0,1) draws for replicates rep_lo..rep_hi-1, one row each.

    Row i holds columns col_lo..col_lo+cols-1 of replicate rep_lo + i.  The
    request is cut into tiles of ``TILE`` columns, the last one shorter, so
    col_lo must be a non-negative multiple of ``TILE`` (else ValueError).
    Tile t (columns t*TILE onwards, width w, q = ceil(w/4)) of replicate r
    is exactly::

        gen = Generator(Philox(key=[seed, r // 64], counter=[(r % 64) * q, t, 0, 0]))
        gen.random(4 * q)[:w]

    Philox4x64 yields 4 doubles per counter value, so the 64 replicates of a
    key's group are adjacent runs of q counter values: each (group, tile) is
    one state assignment and one ``random`` call into a C-ordered block of
    at most 64 rows, whatever part of the group the request covers.  A
    value depends only on seed, replicate, column, ``TILE`` and its tile's
    width, so tiles drawn one call at a time join into one full draw.

    The array is Fortran-ordered: each column, one uniform of every
    replicate, is contiguous, so the transpose is C-contiguous.  Philox
    fills only contiguous memory, so each block is copied across.
    """
    # numpy stores key=[seed, group] as float64 from 2**63 on, merging seeds
    if not 0 <= seed < 2**63:
        raise ValueError(f"seed must lie in [0, 2**63), got {seed}")
    if col_lo < 0 or col_lo % TILE:
        raise ValueError(f"col_lo must be a non-negative multiple of TILE = {TILE}, got {col_lo}")
    out = np.empty((rep_hi - rep_lo, cols), order="F")
    block = np.empty(GROUP * 4 * -(-min(TILE, cols) // 4))
    if not hasattr(_philox, "draws"):
        bitgen = np.random.Philox(key=[0, 0])
        # read, as its name must match the class; fields set as lists, which
        # the state setter takes several times faster than arrays
        state = bitgen.state
        state["buffer"] = [0, 0, 0, 0]
        _philox.draws = bitgen, np.random.Generator(bitgen), state
    bitgen, gen, state = _philox.draws
    key, counter = [seed, 0], [0, 0, 0, 0]
    state["state"] = {"counter": counter, "key": key}
    for lo in range(0, cols, TILE):
        w = min(TILE, cols - lo)
        q = -(-w // 4)
        counter[1] = (col_lo + lo) // TILE
        for group_lo in range(rep_lo - rep_lo % GROUP, rep_hi, GROUP):
            first, last = max(rep_lo, group_lo), min(rep_hi, group_lo + GROUP)
            key[1] = group_lo // GROUP
            counter[0] = (first - group_lo) * q
            # the assignment also empties the buffer and the cached half-word
            bitgen.state = state
            rows = block[: (last - first) * 4 * q].reshape(last - first, 4 * q)
            gen.random(out=rows)
            out[first - rep_lo : last - rep_lo, lo : lo + w] = rows[:, :w]
    return out


def require_finite(arrays: dict[str, np.ndarray], what: str) -> None:
    """Raise ValueError naming each floating array of arrays that holds
    non-finite values, with their count."""
    _require_counts(
        {
            k: int(np.count_nonzero(~np.isfinite(v)))
            for k, v in arrays.items()
            if np.issubdtype(v.dtype, np.floating)
        },
        what,
    )


def _require_counts(counts: dict[str, int], what: str) -> None:
    """Raise ValueError naming each key with a nonzero count of non-finite
    values."""
    bad = ", ".join(f"{k} in {count}" for k, count in counts.items() if count)
    if bad:
        raise ValueError(f"non-finite {what}: {bad}")


def true_risk(c: float | np.ndarray, theta_star: float, eta: float):
    """Closed-form 0-1 risk of the threshold hypothesis h_c: eta + (1-2 eta)|c - theta_star|."""
    return eta + (1.0 - 2.0 * eta) * abs(c - theta_star)


def _clip01(v):
    # builtins on a float, ndarray.clip on an array: the same bits except at
    # -0.0 (the float branch gives +0.0, the array one keeps -0.0) and at NaN
    # (0.0 against NaN), values the learner's threshold never takes
    if isinstance(v, float):
        return min(1.0, max(0.0, v))
    return v.clip(0.0, 1.0)


def _sqrt(k):
    # math.sqrt on an int, np.sqrt on an array: both round correctly, so the
    # same bits either way
    if isinstance(k, int):
        return math.sqrt(k)
    return np.sqrt(k)


def finals(spec: ProcessSpec, seed: int, rep_lo: int, rep_hi: int) -> dict[str, np.ndarray]:
    """End-of-horizon summaries for the block of replicates rep_lo..rep_hi-1.

    The uniforms are drawn one tile of ``TILE // cols`` steps at a time (the
    last tile may be shorter), so at most one tile of B x TILE doubles is
    held.
    """
    B = rep_hi - rep_lo
    tile_steps = TILE // spec.cols
    x = np.full(B, spec.x0)
    # m, qv, pqv, then the terms, each summed from 0.0 in step order
    totals = [np.zeros(B) for _ in range(3 + len(spec.terms))]
    # an overflow turns statistics non-finite, which the caller reports
    with np.errstate(over="ignore", invalid="ignore"):
        for k0 in range(0, spec.n, tile_steps):
            steps = min(tile_steps, spec.n - k0)
            # u[k - k0 - 1][:, i] are step k's uniforms of replicate i; the
            # transpose of the Fortran-ordered draw is C-contiguous, so this
            # is a view and each step's uniforms are contiguous
            u = uniform_rows(seed, rep_lo, rep_hi, steps * spec.cols, k0 * spec.cols)
            u = u.T.reshape(steps, spec.cols, B)
            for k in range(k0 + 1, k0 + steps + 1):
                x, inc, csm, terms = spec.step(x, u[k - k0 - 1], k)
                for total, value in zip(totals, (inc, inc * inc, csm, *terms)):
                    total += value
            # free this tile before the next one is drawn
            del u
        m, qv, pqv, *sums = totals
        stats = spec.stats(x, dict(zip(spec.terms, sums)), spec.n)
    return {"m": m, "qv": qv, "pqv": pqv, **stats}


def _step_uniforms(spec: ProcessSpec, seed: int, replicate: int, k0: int, k1: int) -> np.ndarray:
    """The uniforms of steps k0+1..k1 of a replicate, one row per step; k0
    is a multiple of ``TILE``."""
    u = uniform_rows(seed, replicate, replicate + 1, (k1 - k0) * spec.cols, k0 * spec.cols)
    return u.reshape(k1 - k0, spec.cols)


def _running(spec: ProcessSpec, states: np.ndarray, u: np.ndarray, k0: int, carry) -> np.ndarray:
    """Running m, qv, pqv and term sums after steps k0..k0+len(u), one
    column per step, continuing from carry, their values after step k0.

    The records of steps k0+1..k0+len(u) come from one array step on the
    states before them and their uniforms u, one row per step; np.cumsum
    adds them left to right from carry, in the order in which
    :func:`finals` adds the same values to its running totals.
    """
    k1 = k0 + len(u)
    table = np.empty((len(carry), len(u) + 1))
    table[:, 0] = carry
    with np.errstate(over="ignore", invalid="ignore"):
        # u.T[j] holds uniform j of every step
        _, inc, csm, terms = spec.step(states[k0:k1], u.T, np.arange(k0 + 1, k1 + 1))
        table[:, 1:] = (inc, inc * inc, csm, *terms)
        return np.cumsum(table, axis=1, out=table)


def simulate(spec: ProcessSpec, seed: int, replicate: int = 0) -> ProcessTrace:
    """One replicate stepped on floats, keeping only its state path and its
    running totals at every ``TILE``-th step.

    Raises ValueError when the path's m, qv or pqv is not finite, before
    any row is rendered.
    """
    # looked up once for the n float steps below
    step, n = spec.step, spec.n
    # allocated whole first, so a horizon too long for memory fails at once
    states = np.empty(n + 1)
    states[0] = x = spec.x0
    totals = np.empty((-(-n // TILE) + 1, 3 + len(spec.terms)))
    totals[0] = 0.0
    nonfinite = np.zeros(3, dtype=np.int64)
    for s, k0 in enumerate(range(0, n, TILE)):
        k1 = min(k0 + TILE, n)
        u = _step_uniforms(spec, seed, replicate, k0, k1)
        xs = []
        # each step's uniforms as a list of Python floats
        for k, u_k in enumerate(u.tolist(), k0 + 1):
            x = step(x, u_k, k)[0]
            xs.append(x)
        states[k0 + 1 : k1 + 1] = xs
        # the span's records from the same uniforms, which checks the path
        sums = _running(spec, states, u, k0, totals[s])
        nonfinite += np.count_nonzero(~np.isfinite(sums[:3, 1:]), axis=1)
        totals[s + 1] = sums[:, -1]
    _require_counts(
        dict(zip(("m", "qv", "pqv"), nonfinite.tolist())),
        f"trace of {spec}, replicate {replicate}",
    )
    return ProcessTrace(spec=spec, seed=seed, replicate=replicate, states=states, totals=totals)


# Per-process names of the two drivers; each accepts any spec.
ar1_finals = idla_finals = learning_finals = finals
ar1_simulate = idla_simulate = learning_simulate = simulate


def idla_exact_moments(n: int) -> tuple[float, float]:
    """Exact (E[X_n^2], E[M_n^2]) = ((n+2)/3, (n+1)^2 (n+2)/3)."""
    if n < 1:
        raise ValueError(f"horizon must be >= 1, got {n}")
    ex2 = (n + 2.0) / 3.0
    return ex2, (n + 1.0) ** 2 * ex2


def trace_to_csv(trace: ProcessTrace, lo: int = 0, hi: int | None = None) -> str:
    """Render steps lo..hi-1 of a trace as CSV rows (step 0 is the first
    row, hi defaults to past the last), with the header only when lo is 0.

    Joining the renderings of consecutive ranges gives the whole document,
    so a caller can write a long trace one block of rows at a time.
    """
    columns = trace.columns(lo, hi)
    # each column goes to Python floats once; repr is the shortest round trip
    cells = [map(repr, values.tolist()) for values in columns.values()]
    lines = list(map(",".join, zip(map(str, range(lo, trace.spec.n + 1)), *cells)))
    if lo == 0:
        lines.insert(0, "step," + ",".join(columns))
    # every line ends in CRLF; an empty range renders as ""
    return "\r\n".join(lines + [""])
