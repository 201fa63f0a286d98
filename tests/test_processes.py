import dataclasses
import math
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from selfnorm import montecarlo, processes
from selfnorm.bounds import s_weighted, weight_c
from selfnorm.processes import (
    AR1Spec,
    IDLASpec,
    LearnSpec,
    finals as block_finals,
    idla_exact_moments,
    simulate,
    trace_to_csv,
    true_risk,
    uniform_rows,
)


class TestSpecs:
    def test_validation(self):
        with pytest.raises(ValueError):
            AR1Spec(p=0.6, theta=0.5, n=10)
        with pytest.raises(ValueError):
            AR1Spec(p=0.5, theta=0.5, n=0)
        with pytest.raises(ValueError):
            IDLASpec(n=0)
        with pytest.raises(ValueError):
            LearnSpec(theta_star=0.5, eta=0.5, gamma0=0.5, c0=0.0, n=10)
        with pytest.raises(ValueError):
            LearnSpec(theta_star=1.5, eta=0.1, gamma0=0.5, c0=0.0, n=10)

    def test_noise_variance(self):
        spec = AR1Spec(p=1 / 3, theta=0.5, n=10)
        assert spec.sigma2 == pytest.approx(8 / 9, abs=1e-15)


def reference_rows(seed, rep_lo, B, cols, col_lo):
    """The stream's definition: one fresh generator per replicate and tile."""
    T = processes.TILE

    def tile(rep, t, w):
        q = -(-w // 4)
        counter = [rep % 64 * q, t, 0, 0]
        gen = np.random.Generator(np.random.Philox(key=[seed, rep // 64], counter=counter))
        return gen.random(4 * q)[:w]

    def row(rep):
        tiles = [tile(rep, (col_lo + lo) // T, min(T, cols - lo)) for lo in range(0, cols, T)]
        return np.concatenate(tiles)

    return np.array([row(rep) for rep in range(rep_lo, rep_lo + B)])


def assert_matches_per_replicate_construction(seed, rep_lo, B, cols, col_lo):
    ref = reference_rows(seed, rep_lo, B, cols, col_lo)
    rows = uniform_rows(seed, rep_lo, rep_lo + B, cols, col_lo)
    assert rows.shape == (B, cols)
    assert rows.tobytes() == ref.tobytes()


# a whole tile and a partial one
TWO_TILES = processes.TILE + 7


class TestRng:
    def test_streams_keyed_by_replicate(self):
        a = uniform_rows(42, 0, 3, 8)
        b = uniform_rows(42, 1, 2, 8)
        assert np.array_equal(a[1], b[0])
        assert not np.array_equal(a[0], a[1])

    def test_seed_changes_stream(self):
        assert not np.array_equal(uniform_rows(1, 0, 1, 8), uniform_rows(2, 0, 1, 8))

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            uniform_rows(-1, 0, 1, 8)

    def test_seed_range(self):
        # numpy reads the key [seed, group] as float64 once seed >= 2**63,
        # where neighbouring seeds give the same stream
        top = uniform_rows(2**63 - 1, 0, 2, 8)
        assert not np.array_equal(top, uniform_rows(2**63 - 2, 0, 2, 8))
        for seed in (2**63, 2**63 + 1, 2**64 - 1, 10**23):
            with pytest.raises(ValueError, match="seed"):
                uniform_rows(seed, 0, 1, 8)

    @pytest.mark.parametrize("seed", [0, 42, 2**63 - 1])
    @pytest.mark.parametrize("rep_lo", [0, 63, 64, 65, 4095, 4096])
    @pytest.mark.parametrize("cols", [1, 7, 200, TWO_TILES])
    def test_matches_per_replicate_construction(self, seed, rep_lo, cols):
        # one fresh generator per replicate and tile is the definition of the
        # stream; odd cols leave part of the tile's last counter value unused,
        # and rep_lo 63..65 put the 3 rows across a key's group boundary
        assert_matches_per_replicate_construction(seed, rep_lo, 3, cols, 0)

    @pytest.mark.parametrize("cols", [1, 7, 200, TWO_TILES])
    @pytest.mark.parametrize("col_lo", [0, processes.TILE, 4 * processes.TILE])
    @pytest.mark.parametrize("B", [1, 63, 64, 65, 129])
    def test_draw_blocks_match_per_replicate_construction(self, cols, col_lo, B):
        # B crosses the boundaries of the groups that share a key, col_lo
        # starts the request at a later tile, and the replicates straddle
        # 4096, the first replicate of a run's second chunk
        assert_matches_per_replicate_construction(2**63 - 1, 4095 - B // 2, B, cols, col_lo)

    def test_stream_positions_one_to_one(self):
        # (replicate, column) -> (key, counter, lane) over replicates that
        # cross group boundaries and columns that cross tile boundaries, the
        # last tile partial; Philox steps its counter before each 4 doubles
        T, seed, reps, cols = processes.TILE, 7, range(60, 200), 2 * processes.TILE + 5
        positions = set()
        for rep in reps:
            for col in range(cols):
                t, offset = divmod(col, T)
                q = -(-min(T, cols - t * T) // 4)
                counter = (rep % 64 * q + offset // 4 + 1, t)
                positions.add(((seed, rep // 64), counter, offset % 4))
        assert len(positions) == len(reps) * cols
        # and the draws agree: a position shared by two cells would repeat a
        # value, which 2**53-valued uniforms otherwise do with odds near 1e-7
        rows = uniform_rows(seed, reps.start, reps.stop, cols)
        assert len(np.unique(rows)) == rows.size

    @pytest.mark.parametrize("B", [1, 2, 65])
    def test_step_major_layout(self, B):
        # each column, one uniform of every replicate, is contiguous
        rows = uniform_rows(5, 10, 10 + B, 12)
        assert rows.flags.f_contiguous
        assert rows.T.flags.c_contiguous

    def test_one_bit_generator_per_thread(self, monkeypatch):
        requests = [(3, 0, 300, 20, 0), (4, 70, 90, 600, processes.TILE), (3, 0, 300, 20, 0)]
        expected = [uniform_rows(*request).tobytes() for request in requests]
        built = []

        class CountingPhilox(np.random.Philox):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", CountingPhilox)
        drawn = []
        # a new thread builds its own instance on first use, and reuses it
        thread = threading.Thread(
            target=lambda: drawn.extend(uniform_rows(*request).tobytes() for request in requests)
        )
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert len(built) == 1
        assert drawn == expected

    def test_threads_drawing_at_once_get_the_serial_bits(self):
        requests = [(seed, 60 * seed, 60 * seed + 70, 300, 0) for seed in range(40)]
        expected = [uniform_rows(*request).tobytes() for request in requests]
        drawn = {}
        start = threading.Barrier(4)

        def draw(t):
            start.wait()
            drawn[t] = [uniform_rows(*request).tobytes() for request in requests[t::4]]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=draw, args=(t,)) for t in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for t in range(4):
            assert drawn[t] == expected[t::4]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_children_draw_the_same_bits(self, monkeypatch):
        # the children inherit this thread's bit generator, already used
        requests = [(seed, 100, 300, 2 * processes.TILE + 3, 0) for seed in range(6)]
        expected = [uniform_rows(*request).tobytes() for request in requests]
        work = lambda request: uniform_rows(*request).tobytes()
        monkeypatch.setattr(montecarlo, "_cpus", lambda: 3)
        assert list(montecarlo.fan_out(work, requests)) == expected

    @pytest.mark.parametrize("tile", [4, 8, processes.TILE, 1024])
    def test_tiles_join_into_full_draw(self, tile, monkeypatch):
        # two whole tiles and a partial one of 3 columns, drawn one call per
        # tile as finals does, give the bits of one full draw
        monkeypatch.setattr(processes, "TILE", tile)
        cols = 2 * tile + 3
        full = uniform_rows(9, 4094, 4099, cols)
        tiles = [
            uniform_rows(9, 4094, 4099, min(tile, cols - lo), lo) for lo in range(0, cols, tile)
        ]
        assert len(tiles) == 3
        assert np.hstack(tiles).tobytes() == full.tobytes()
        assert full.tobytes() == reference_rows(9, 4094, 5, cols, 0).tobytes()

    @pytest.mark.parametrize(
        "col_lo", [-4, -1, 1, 2, 6, 4, processes.TILE // 2, processes.TILE + 4, -processes.TILE]
    )
    def test_col_lo_must_be_non_negative_multiple_of_tile(self, col_lo):
        with pytest.raises(ValueError, match="col_lo must be a non-negative multiple of TILE"):
            uniform_rows(9, 0, 1, 8, col_lo)


def step_records(trace):
    """(x_new, increment, cond_second_moment, terms) of steps 1..n of a
    trace, from one array step over the states before them and the
    replicate's uniforms."""
    spec, n = trace.spec, trace.spec.n
    u = uniform_rows(trace.seed, trace.replicate, trace.replicate + 1, n * spec.cols)
    return spec.step(trace.states[:-1], u.reshape(n, spec.cols).T, np.arange(1, n + 1))


class TestAR1:
    spec = AR1Spec(p=1 / 3, theta=0.5, n=100)

    def test_noise_support(self):
        xs = simulate(self.spec, seed=0).states
        eps = xs[1:] - self.spec.theta * xs[:-1]
        p, q = self.spec.p, self.spec.q
        assert np.all(np.isclose(eps, 2 * q) | np.isclose(eps, -2 * p))
        assert np.all(
            np.isclose(eps**2, 4 * q * q) | np.isclose(eps**2, 4 * p * p)
        )

    def test_estimator_identity(self):
        for seed in range(5):
            columns = simulate(self.spec, seed=seed).columns()
            th = columns["theta_hat"][-1]
            rhs = self.spec.sigma2 * columns["m"][-1] / columns["pqv"][-1]
            assert th - self.spec.theta == pytest.approx(rhs, rel=1e-10)

    def test_sandwich_every_k(self, monkeypatch):
        # (p/q)<M>_k <= [M]_k <= (q/p)<M>_k on every path: replicate i's
        # noise at step j + 1 is 2q when bit j of i is set (u = 0.0) and -2p
        # otherwise (u = 1 - 2**-53), so 2**12 replicates run every noise path
        # of 12 steps through the block driver, and finals at horizon k
        # hold every path's variations at step k
        def noise_bits(seed, rep_lo, rep_hi, cols, col_lo=0):
            reps = np.arange(rep_lo, rep_hi)[:, None]
            bits = (reps >> np.arange(col_lo, col_lo + cols)) & 1
            return np.where(bits == 1, 0.0, 1.0 - 2.0**-53)

        monkeypatch.setattr(processes, "uniform_rows", noise_bits)
        for p, theta in ((0.5, 0.5), (1 / 3, 0.5), (1 / 3, 1.0), (0.1, -0.9), (0.25, 1.5)):
            q = 1.0 - p
            for k in range(1, 13):
                finals = block_finals(AR1Spec(p=p, theta=theta, n=k), 0, 0, 2**12)
                qv, pqv = finals["qv"], finals["pqv"]
                assert np.all(p / q * pqv <= qv * (1 + 1e-12))
                assert np.all(qv <= q / p * pqv * (1 + 1e-12))
            if theta == 0.5:
                # X_12 spells the replicate's bits in base 1/2: all paths differ
                assert len(np.unique(finals["x"])) == 2**12
        columns = simulate(self.spec, seed=3).columns()
        p, q = self.spec.p, self.spec.q
        qv, pqv = columns["qv"][1:], columns["pqv"][1:]
        assert np.all(p / q * pqv <= qv * (1 + 1e-12))
        assert np.all(qv <= q / p * pqv * (1 + 1e-12))

    def test_symmetric_case_variations_equal(self):
        spec = AR1Spec(p=0.5, theta=0.5, n=100)
        columns = simulate(spec, seed=1).columns()
        assert np.array_equal(columns["qv"], columns["pqv"])

    def test_deterministic(self):
        t1 = simulate(self.spec, seed=11)
        t2 = simulate(self.spec, seed=11)
        assert np.array_equal(t1.states, t2.states)


class TestIDLA:
    spec = IDLASpec(n=200)

    def test_path_constraints(self):
        columns = simulate(self.spec, seed=4).columns()
        xs = columns["x"]
        ks = np.arange(self.spec.n + 1)
        assert np.all(np.abs(xs) <= ks)
        assert np.all((xs - ks) % 2 == 0)
        assert np.all(columns["r"] - columns["l"] == ks)

    def test_pqv_identity(self):
        trace = simulate(IDLASpec(n=50), seed=8)
        xs = trace.states
        n = 50
        expected = sum((k + 1) ** 2 for k in range(1, n + 1)) - sum(
            xs[k - 1] ** 2 for k in range(1, n + 1)
        )
        assert trace.columns()["pqv"][-1] == pytest.approx(expected, abs=1e-9)

    def test_exact_moments(self):
        assert idla_exact_moments(1) == (1.0, 4.0)
        ex2, em2 = idla_exact_moments(100)
        assert ex2 == pytest.approx(34.0, abs=1e-12)
        assert em2 == pytest.approx(101**2 * 34.0, abs=1e-6)
        with pytest.raises(ValueError):
            idla_exact_moments(0)

    def test_moment_recursion(self):
        prev = idla_exact_moments(1)[0]
        for n in range(2, 1001):
            cur = idla_exact_moments(n)[0]
            assert cur == pytest.approx(1 + (n - 1) / (n + 1) * prev, rel=1e-12)
            prev = cur

    def test_second_moment_mc(self):
        finals = block_finals(IDLASpec(n=100), 21, 0, 20_000)
        x2 = finals["x"] ** 2
        se = x2.std() / math.sqrt(len(x2))
        assert abs(x2.mean() - 34.0) <= 3 * se

    def test_conditional_mean_identity(self):
        # E[X_k | X_{k-1}] = (k/(k+1)) X_{k-1}, checked by MC at fixed k
        k = 10
        finals = block_finals(IDLASpec(n=k - 1), 31, 0, 40_000)
        x_prev = finals["x"]
        u = uniform_rows(31, 0, 40_000, k)[:, k - 1]
        # step k of the shipped dynamics, fed the uniforms finals would use
        x_next = IDLASpec(n=k).step(x_prev, (u,), k)[0]
        resid = x_next - k / (k + 1) * x_prev
        se = resid.std() / math.sqrt(len(resid))
        assert abs(resid.mean()) <= 3 * se

    def test_variation_processes_always_split(self):
        # the step-2 increments of qv and pqv can never agree, so the two
        # processes differ as sequences on every path once n >= 2
        finals = block_finals(IDLASpec(n=2), 5, 0, 5000)
        assert not np.any(finals["qv"] == finals["pqv"])
        for rep in range(50):
            columns = simulate(IDLASpec(n=10), seed=5, replicate=rep).columns()
            assert np.any(columns["qv"] != columns["pqv"])
            assert columns["qv"][2] != columns["pqv"][2]


class TestLearning:
    spec = LearnSpec(theta_star=0.5, eta=0.1, gamma0=0.5, c0=0.0, n=100)

    def test_perfect_hypothesis_is_degenerate(self):
        spec = LearnSpec(theta_star=0.5, eta=0.0, gamma0=0.5, c0=0.5, n=50)
        columns = simulate(spec, seed=0).columns()
        # sums of non-negative terms: every loss and every risk is 0
        assert np.all(columns["r_bar"] == 0.0)
        assert np.all(columns["r_hat"] == 0.0)
        assert np.all(columns["m"] == 0.0)

    def test_losses_binary(self):
        loss, _ = step_records(simulate(self.spec, seed=2))[3]
        assert set(np.unique(loss)) <= {0.0, 1.0}

    def test_risk_gap_is_scaled_martingale(self):
        columns = simulate(self.spec, seed=3).columns()
        for k in range(1, self.spec.n + 1):
            gap = columns["r_bar"][k] - columns["r_hat"][k]
            assert gap == pytest.approx(columns["m"][k] / k, abs=1e-12)

    def test_closed_form_risk(self):
        # quadrature oracle over x in [0,1] for the 0-1 loss of h_c
        def risk_numeric(c, theta_star, eta):
            xs = np.linspace(0.0, 1.0, 200_001)
            pred = xs >= c
            clean = xs >= theta_star
            wrong = pred != clean
            return float(np.trapezoid(np.where(wrong, 1 - eta, eta), xs))

        assert true_risk(0.7, 0.5, 0.1) == pytest.approx(0.26, abs=1e-12)
        for c, ts, eta in ((0.7, 0.5, 0.1), (0.2, 0.6, 0.0), (0.9, 0.1, 0.3)):
            assert true_risk(c, ts, eta) == pytest.approx(
                risk_numeric(c, ts, eta), abs=1e-4
            )

    def test_weighted_variation_cap(self):
        finals = block_finals(self.spec, 17, 0, 512)
        n = self.spec.n
        for a in (1 / 3, 9 / 16, 0.2):
            s = finals["qv"] + weight_c(a) * finals["pqv"]
            cap = n * (1 + weight_c(a) * finals["r_bar"])
            assert np.all(s <= cap + 1e-9)


# (spec, seed) per process
KERNEL_CASES = {
    "ar1": (AR1Spec(p=1 / 3, theta=0.5, n=100), 7),
    "idla": (IDLASpec(n=200), 13),
    "learn": (LearnSpec(theta_star=0.5, eta=0.1, gamma0=0.5, c0=0.0, n=100), 23),
}


# (process, replicate, TILE): None keeps the default TILE, which draws these
# horizons at once; TILE 4 and 8 split them into several tiles
KERNEL_PARAMS = [
    pytest.param(process, rep, tile, id=f"{process}-{rep}" + (f"-tile{tile}" if tile else ""))
    for process in KERNEL_CASES
    for rep in range(4)
    for tile in (None, 4, 8)
]


@pytest.mark.parametrize("process, rep, tile", KERNEL_PARAMS)
def test_kernel_matches_single_path(process, rep, tile, monkeypatch):
    spec, seed = KERNEL_CASES[process]
    if tile:
        # three more steps end the horizon on a partial tile of the block
        monkeypatch.setattr(processes, "TILE", tile)
        spec = dataclasses.replace(spec, n=spec.n + 3)
    finals = block_finals(spec, seed, 0, 4)
    columns = simulate(spec, seed=seed, replicate=rep).columns()
    # finals are the path's m, qv, pqv and every trace statistic at the horizon
    assert list(finals) == list(columns)
    for key, series in columns.items():
        assert series[-1] == finals[key][rep]


@pytest.mark.parametrize("process", sorted(KERNEL_CASES))
def test_steps_read_contiguous_uniforms(process, monkeypatch):
    # the block driver hands every step its uniforms as contiguous vectors,
    # on whole tiles and on the horizon's partial last tile
    spec, seed = KERNEL_CASES[process]
    spec = dataclasses.replace(spec, n=spec.n + 3)
    monkeypatch.setattr(processes, "TILE", 8)
    shipped = type(spec).step
    seen = []

    def step(spec, x, u, k):
        seen.append((u.flags.c_contiguous, u.shape))
        return shipped(spec, x, u, k)

    monkeypatch.setattr(type(spec), "step", step)
    block_finals(spec, seed, 0, 70)
    assert seen == [(True, (spec.cols, 70))] * spec.n


def test_finals_memory_does_not_grow_with_horizon():
    # the block holds one tile of uniforms (2 MB here) at a time, whatever the
    # horizon; holding every tile, or two at once, would add 2 MB or more
    B = 2_000_000 // (8 * processes.TILE)
    specs = [
        LearnSpec(theta_star=0.5, eta=0.1, gamma0=0.5, c0=0.0, n=tiles * processes.TILE // 2)
        for tiles in (1, 4)
    ]
    block_finals(specs[0], 5, 0, B)  # one-time allocations stay out of the peaks
    peaks = []
    for spec in specs:
        tracemalloc.start()
        try:
            block_finals(spec, 5, 0, B)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 1_000_000


@pytest.mark.parametrize("process", sorted(KERNEL_CASES))
def test_trace_memory_is_one_float_per_step(process):
    # a trace keeps its state path, 8 B per step, and rebuilds each block of
    # rows from it; the slack holds its totals (a few floats per TILE steps)
    # and a later block's longer numbers.  Keeping one more full-length
    # series would add 197 kB from n to 4n here
    spec, seed = KERNEL_CASES[process]
    n = 32 * processes.TILE
    block = 4 * processes.TILE

    def simulate_and_render(n):
        trace = simulate(dataclasses.replace(spec, n=n), seed)
        for lo in range(0, n + 1, block):
            trace_to_csv(trace, lo, lo + block)

    simulate_and_render(n)  # one-time allocations stay out of the peaks
    peaks = []
    for horizon in (n, 4 * n):
        tracemalloc.start()
        try:
            simulate_and_render(horizon)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 8 * 3 * n + 64_000


def bitwise_equal(floats, arrays):
    """Each float result equals the one entry of the matching array result,
    bit for bit."""
    scalars, vectors = [*floats[:3], *floats[3]], [*arrays[:3], *arrays[3]]
    return [np.float64(v).tobytes() for v in scalars] == [v.tobytes() for v in vectors]


def step_both_ways(spec, x, u, k):
    """spec.step on floats, and on arrays of one entry each."""
    with np.errstate(over="ignore", invalid="ignore"):
        arrays = spec.step(np.array([x]), np.array(u)[:, None], np.array([k]))
    return spec.step(x, u, k), arrays


unit = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
# past 2**53, int to float conversion rounds, on both paths alike
step_index = st.integers(min_value=1, max_value=2**62)


class TestStepOnFloatsEqualsStepOnArrays:
    """simulate steps on floats and rebuilds its rows with one array step per
    span, so the two must agree bit for bit; so must finals, which steps
    arrays with an int k."""

    @given(
        p=st.floats(min_value=1e-6, max_value=0.5),
        theta=st.floats(min_value=-1e3, max_value=1e3),
        x=st.floats(allow_nan=False, allow_infinity=False),
        u=unit,
    )
    def test_ar1(self, p, theta, x, u):
        spec = AR1Spec(p=p, theta=theta, n=1)
        assert bitwise_equal(*step_both_ways(spec, x, [u], 1))

    @given(k=step_index, frac=unit, u=unit)
    # libm's pow rounds 122457479.0 ** 2 one ulp off the product
    @example(k=122457478, frac=0.5, u=0.5)
    def test_idla(self, k, frac, u):
        x = float(round((2.0 * frac - 1.0) * (k - 1)))  # on the support |x| < k
        assert bitwise_equal(*step_both_ways(IDLASpec(n=1), x, [u], k))

    @given(
        theta_star=unit,
        eta=st.floats(min_value=0.0, max_value=0.5, exclude_max=True),
        gamma0=st.floats(min_value=1e-3, max_value=1e3),
        c=unit,
        u=st.tuples(unit, unit),
        k=step_index,
    )
    @example(theta_star=0.5, eta=0.1, gamma0=0.5, c=0.5, u=(0.0, 0.0), k=2**53 + 1)
    def test_learn(self, theta_star, eta, gamma0, c, u, k):
        spec = LearnSpec(theta_star=theta_star, eta=eta, gamma0=gamma0, c0=0.0, n=1)
        assert bitwise_equal(*step_both_ways(spec, c, list(u), k))

    def test_clip01(self):
        edges = np.array([-np.inf, 0.0, 1.0, np.inf])
        values = np.concatenate(
            [
                edges,
                np.nextafter(edges, -np.inf),
                np.nextafter(edges, np.inf),
                [5e-324, -5e-324, 2.2250738585072009e-308, -2.2250738585072009e-308],
                np.random.default_rng(7).uniform(-2.0, 3.0, 4099),
            ]
        )
        clipped = processes._clip01(values)
        floats = np.array([processes._clip01(float(v)) for v in values])
        assert clipped.tobytes() == floats.tobytes()
        # the array branch keeps the bits of the two ufuncs it replaced, at
        # -0.0 and NaN too
        values = np.append(values, [-0.0, np.nan])
        reference = np.minimum(1.0, np.maximum(0.0, values))
        assert processes._clip01(values).tobytes() == reference.tobytes()


def test_trace_csv_shape():
    trace = simulate(IDLASpec(n=4), seed=1)
    text = trace_to_csv(trace)
    lines = text.splitlines()
    assert lines[0] == "step,m,qv,pqv,x,l,r"
    assert len(lines) == 6
    assert text.endswith("\r\n")


def whole_series_rows(trace):
    """The CSV header and each row as repr of each value, from one rebuild
    of the whole range: one draw of the horizon, one array step and a
    cumsum from zero."""
    columns = trace.columns()
    header = ",".join(["step", *columns])
    series = columns.values()
    rows = [",".join([str(k)] + [repr(float(v[k])) for v in series]) for k in range(trace.spec.n + 1)]
    return header, rows


@pytest.mark.parametrize("tile", [1, 7, None])
@pytest.mark.parametrize("process", sorted(KERNEL_CASES))
def test_trace_csv_blocks_join_to_whole(process, tile, monkeypatch):
    if tile:
        monkeypatch.setattr(processes, "TILE", tile)
    spec, seed = KERNEL_CASES[process]
    # the horizon ends inside a block whatever the tile
    trace = simulate(dataclasses.replace(spec, n=2 * processes.TILE + 3), seed=seed)
    whole = trace_to_csv(trace)
    header, rows = whole_series_rows(trace)
    assert header.split(",")[:4] == ["step", "m", "qv", "pqv"]
    assert whole == "\r\n".join([header, *rows, ""])
    blocks = range(0, trace.spec.n + 1, processes.TILE)
    assert "".join(trace_to_csv(trace, lo, lo + processes.TILE) for lo in blocks) == whole
    assert trace_to_csv(trace, 0, 1).count("\r\n") == 2  # the header and step 0
    lo, hi = processes.TILE + 1, 2 * processes.TILE + 2  # a range off the tiles
    assert trace_to_csv(trace, lo, hi) == "\r\n".join(rows[lo:hi] + [""])
    assert trace_to_csv(trace, 3, 3) == ""


@pytest.mark.parametrize("tile", [7, None])
@pytest.mark.parametrize("replicate", [1, 65])
@pytest.mark.parametrize("process", sorted(KERNEL_CASES))
def test_trace_rows_of_any_range_match_whole_series(process, replicate, tile, monkeypatch):
    # past replicate 0 of a key's group, a tile's values depend on its
    # width, so a range that ends inside a span must still be rebuilt from
    # the span's whole tiles
    if tile:
        monkeypatch.setattr(processes, "TILE", tile)
    T = processes.TILE
    spec, seed = KERNEL_CASES[process]
    trace = simulate(dataclasses.replace(spec, n=2 * T + 3), seed=seed, replicate=replicate)
    header, rows = whole_series_rows(trace)
    ranges = [(0, 100), (1, T // 2 + 2), (T, T + 1), (T + 1, T + 50), (T - 1, 2 * T - 2), (2 * T + 1, 3 * T)]
    for lo, hi in ranges:
        lines = [header] * (lo == 0) + rows[lo:hi]
        assert trace_to_csv(trace, lo, hi) == "\r\n".join(lines + [""]), (lo, hi)
