"""End-to-end acceptance suite.

Each test prints a single PASS/FAIL line (visible with pytest -s) and asserts
the same condition, so the suite doubles as a human-readable report.
"""

import math

import numpy as np
import pytest

from selfnorm import bounds, montecarlo
from selfnorm.bounds import TABLE1
from selfnorm.cli import main
from selfnorm.montecarlo import (
    hoeffding_epsilon,
    simulate_finals,
    summarize_indicators,
)
from selfnorm.processes import AR1Spec, IDLASpec, LearnSpec, idla_exact_moments

A_GRID = (0.13, 0.2, 1 / 3, 9 / 16, 1.0, 2.0, 10.0)
ALPHA = 0.05


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance {num:2d} {name}: {status}{suffix}")
    return ok


@pytest.fixture(scope="module")
def idla100():
    return simulate_finals(IDLASpec(n=100), seed=101, n_samples=100_000)


def _supermg_mean(finals, t, a):
    b = bounds.weight_b(a)
    v = np.exp(t * finals["m"] - 0.5 * a * t * t * finals["qv"] - 0.5 * b * t * t * finals["pqv"])
    return float(v.mean()), float(v.std() / math.sqrt(len(v)))


def test_01_weight_table():
    worst = max(abs(bounds.weight_c(a) - c) for a, c in TABLE1)
    ok = worst < 1e-12
    assert report(1, "closed-form weight table", ok, f"max abs err {worst:.2e}")


def test_02_pointwise_margin_grid():
    xs = np.linspace(-50.0, 50.0, 100_001)
    worst_margin = math.inf
    worst_disc = 0.0
    for a in A_GRID:
        b = bounds.weight_b(a)
        margin = (1.0 + xs + 0.5 * b * xs * xs) - np.exp(xs - 0.5 * a * xs * xs)
        worst_margin = min(worst_margin, float(margin.min()))
        worst_disc = max(worst_disc, abs(bounds.pab_discriminant(a, b)))
    ok = worst_margin >= -1e-12 and worst_disc <= 1e-10
    assert report(
        2,
        "pointwise exponential inequality",
        ok,
        f"min margin {worst_margin:.2e}, max |disc| {worst_disc:.2e}",
    )


def test_03_weight_identities():
    dense = np.concatenate(
        [np.array(A_GRID), np.linspace(0.1251, 20.0, 4001)]
    )
    worst_id = max(abs(bounds.weight_b(a) - a * bounds.weight_c(a)) for a in dense)
    above_half = all(bounds.weight_b(a) > 0.5 for a in dense)
    grid = np.unique(dense)
    cs = np.array([bounds.weight_c(a) for a in grid])
    c_mid = np.array([bounds.weight_c(a) for a in (grid[:-1] + grid[1:]) / 2.0])
    convex = bool(np.all(c_mid < (cs[:-1] + cs[1:]) / 2.0))
    ok = worst_id < 1e-12 and above_half and convex
    assert report(
        3,
        "weight identities and convexity",
        ok,
        f"max |b - a c| {worst_id:.2e}, b>1/2 {above_half}, convex {convex}",
    )


def test_04_supermartingale_means():
    specs = [
        IDLASpec(n=200),
        AR1Spec(p=1 / 3, theta=0.5, n=200),
        LearnSpec(theta_star=0.5, eta=0.1, gamma0=0.5, c0=0.0, n=200),
    ]
    worst = -math.inf
    ok = True
    for spec in specs:
        finals = simulate_finals(spec, seed=41, n_samples=10_000)
        for a in (1 / 3, 9 / 16):
            for t in (-0.05, -0.01, -0.001, 0.001, 0.01, 0.05):
                mean, se = _supermg_mean(finals, t, a)
                worst = max(worst, mean - (1.0 + 3.0 * se))
                ok &= mean <= 1.0 + 3.0 * se
    assert report(4, "supermartingale mean at most one", ok, f"worst excess {worst:.2e}")


def test_05_idla_moments(idla100):
    ex2, em2 = idla_exact_moments(100)
    x2 = idla100["x"] ** 2
    m2 = idla100["m"] ** 2
    se_x = x2.std() / math.sqrt(len(x2))
    se_m = m2.std() / math.sqrt(len(m2))
    dev_x = abs(float(x2.mean()) - ex2)
    dev_m = abs(float(m2.mean()) - em2)
    ok = dev_x <= 3 * se_x and dev_m <= 3 * se_m
    assert report(
        5,
        "growth-model exact moments",
        ok,
        f"|dx2| {dev_x:.3g} vs 3se {3 * se_x:.3g}, |dm2| {dev_m:.3g} vs 3se {3 * se_m:.3g}",
    )


def test_06_idla_tail_dominance(idla100):
    n = 100
    scaled = np.abs(idla100["x"]) / n
    ok = True
    for a in (1 / 3, 25 / 96):
        for x in (0.1, 0.2, 0.3, 0.4):
            est = summarize_indicators(scaled >= x, ALPHA, 101)
            new_bound, _ = bounds.idla_bounds(x, n, a)
            azuma = bounds.baseline_bound("AZUMA_IDLA", x, n)
            ok &= est.ci_lo <= new_bound
            ok &= new_bound <= azuma + 1e-15
    assert report(6, "growth-model tail dominance", ok)


def test_07_ar_suite():
    ok = True
    detail = []
    for p, a in ((0.5, 1 / 3), (1 / 3, 9 / 16)):
        for theta in (0.5, 1.0):
            spec = AR1Spec(p=p, theta=theta, n=200)
            finals = simulate_finals(spec, seed=71, n_samples=100_000)
            ok &= bool(np.all(finals["sandwich_ok"]))
            limit = math.sqrt(a * bounds.ar_rate(a, p))
            dev = np.abs(finals["theta_hat"] - theta)
            for frac in (0.05, 0.1, 0.2, 0.4):
                x = frac * limit
                est = summarize_indicators(dev >= x, ALPHA, 71)
                ok &= est.ci_lo <= bounds.ar_bound(x, spec.n, p, a)
            t = -1.0 / (2.0 * spec.sigma2)
            vals = np.exp(t * finals["pqv"])
            mean = float(vals.mean())
            se = float(vals.std() / math.sqrt(len(vals)))
            rhs = math.exp(4.0 * spec.n * t * p * p * spec.sigma2)
            ok &= mean <= rhs + 3.0 * se
            detail.append(f"p={p:.3g},th={theta:g}")
    assert report(7, "autoregressive estimator suite", ok, "; ".join(detail))


def test_08_two_point_mgf_grid():
    s = np.linspace(-20.0, 20.0, 8001)
    worst = 0.0
    for p in (0.01, 0.1, 1 / 3, 0.499, 0.5):
        q = 1.0 - p
        lhs = p * np.exp(q * s) + q * np.exp(-p * s)
        rhs = np.exp(bounds.kearns_saul_phi(p) * s * s / 4.0)
        worst = max(worst, float(np.max(lhs / rhs)) - 1.0)
    ok = worst <= 1e-12
    assert report(8, "two-point moment generating bound", ok, f"max rel excess {worst:.2e}")


def test_09_learning_suite():
    spec = LearnSpec(theta_star=0.5, eta=0.1, gamma0=0.5, c0=0.0, n=100)
    a, delta, reps = 1 / 3, 0.2, 10_000
    finals = simulate_finals(spec, seed=91, n_samples=reps)
    width = bounds.learning_threshold(spec.n, a, delta, 1.0)
    freq = float(np.mean(finals["r_bar"] >= finals["r_hat"] + width))
    coverage_ok = freq <= delta + hoeffding_epsilon(reps, ALPHA)

    cbg0 = bounds.cbg_threshold(0.0, 100, 0.2)
    cbg_ok = abs(cbg0 - 0.9749) <= 5e-4

    roundtrip = max(
        abs(
            bounds.learning_phi(
                bounds.learning_phi_inverse(r, 100, a, delta), 100, a, delta
            )
            - r
        )
        for r in np.linspace(0.0, 1.0, 101)
    )
    roundtrip_ok = roundtrip < 1e-10

    sharper_ok = all(
        bounds.learning_phi_inverse(r, 100, a, delta)
        < bounds.cbg_threshold(r, 100, delta)
        for r in np.linspace(0.0, 1.0, 11)
    )

    closed_form = bounds.learning_phi_inverse(0.0, 100, a, delta)
    print(
        f"    note: closed-form inverted threshold at r=0 is {closed_form:.5f}; "
        "the often-quoted 0.220 value does not match it and is not asserted"
    )
    ok = coverage_ok and cbg_ok and roundtrip_ok and sharper_ok
    assert report(
        9,
        "learning threshold suite",
        ok,
        f"violation freq {freq:.4f}, cbg {cbg0:.4f}, roundtrip {roundtrip:.1e}",
    )


def test_10_chunk_size_determinism(tmp_path, monkeypatch):
    args = ["verify", "idla-scaled", "--n", "50", "--reps", "20000", "--seed", "5"]
    out1 = tmp_path / "default.csv"
    out2 = tmp_path / "chunk1000.csv"
    code1 = main(args + ["--out", str(out1)])
    monkeypatch.setattr(montecarlo, "CHUNK", 1000)
    code2 = main(args + ["--out", str(out2)])
    ok = code1 == code2 == 0 and out1.read_bytes() == out2.read_bytes()
    assert report(10, "chunk-size determinism", ok)
