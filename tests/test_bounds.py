import itertools
import math
import re
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Callable

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfnorm import bounds
from selfnorm.bounds import (
    TABLE1,
    HolderPair,
    ar_bound,
    ar_rate,
    azuma_idla_bound,
    bt2008_bound,
    cbg_threshold,
    exp_tail_bound,
    gauss_ar_bound,
    hermite_margin,
    idla_bounds,
    idla_cn,
    idla_dn,
    kearns_saul_phi,
    learning_phi,
    learning_phi_inverse,
    learning_threshold,
    missing_factor_bound,
    pab_discriminant,
    pqv_ratio_bound,
    ratio_tail_bound,
    s_weighted,
    supermartingale_weight,
    weight_b,
    weight_c,
)

A_GRID = np.linspace(0.125 + 1e-6, 10.0, 2000)

admissible = st.floats(min_value=0.125 + 1e-6, max_value=10.0)


class TestWeights:
    def test_table1(self):
        for a, c in TABLE1:
            assert weight_c(a) == pytest.approx(c, abs=1e-12)

    def test_special_values(self):
        assert weight_c(9 / 55) == pytest.approx(10.0, abs=1e-12)
        assert weight_c(1 / 3) == 2.0
        assert weight_c(25 / 96) == pytest.approx(3.0, abs=1e-12)
        assert weight_c(500.0) == pytest.approx(1 / 1000, rel=0.01)

    def test_b_values(self):
        assert weight_b(1 / 3) == pytest.approx(2 / 3, abs=1e-15)
        assert weight_b(9 / 16) == pytest.approx(9 / 16, abs=1e-12)
        assert 0.5 < weight_b(100.0) < 0.5002

    def test_domain_errors(self):
        # from a ~ 1.3e154 on, a(a+1) overflows and c(a) would be inf
        for a in (0.125, 0.1, -1.0, 1e160, 1e300, math.inf, math.nan):
            with pytest.raises(ValueError):
                weight_c(a)
            with pytest.raises(ValueError):
                weight_b(a)

    @given(admissible)
    def test_b_is_a_times_c(self, a):
        assert abs(weight_b(a) - a * weight_c(a)) < 1e-12

    @given(admissible)
    def test_b_above_half_c_positive(self, a):
        assert weight_c(a) > 0.0
        assert weight_b(a) > 0.5

    @given(st.floats(min_value=0.125, max_value=1.3e154, exclude_min=True))
    def test_b_above_half_c_positive_everywhere(self, a):
        # every finite admissible a: a(a+1) overflows from a ~ 1.34e154 on.
        # b(a) - 1/2 is about 1/(32 a^2), which rounds away from a ~ 2.4e7
        # on, so the double nearest b(a) is 1/2 there
        assert weight_c(a) > 0.0
        assert weight_b(a) > 0.5 if a <= 1e7 else weight_b(a) >= 0.5

    def test_matches_50_digit_reference(self):
        # in doubles, the subtractive form 1 - 2a + 2 sqrt(a(a+1)) gave
        # c = b = 0.0 at 1e16; in decimal it loses about log10(a) digits, so
        # the working precision grows by that many and 50 digits remain
        for a in np.geomspace(0.125, 1e150, 601)[1:]:
            with localcontext() as ctx:
                ctx.prec = 50 + max(0, math.ceil(math.log10(a)))
                d = Decimal(float(a))
                c = 2 * (1 - 2 * d + 2 * (d * (d + 1)).sqrt()) / (8 * d - 1)
                for got, exact in ((weight_c(a), c), (weight_b(a), d * c)):
                    assert abs(Decimal(got) - exact) <= 2 * Decimal(math.ulp(float(exact))), a

    def test_table1_exact_rationals(self):
        # c(a) is rational at each Table-1 a; the weights land within one
        # ulp of it, though a itself is rounded to the nearest double
        for a, c in zip(
            map(Fraction, ("9/55", "4/21", "9/40", "25/96", "1/3", "9/16", "49/72", "4/5")),
            map(Fraction, ("10", "6", "4", "3", "2", "1", "4/5", "2/3")),
        ):
            for got, exact in ((weight_c(float(a)), c), (weight_b(float(a)), a * c)):
                assert abs(Fraction(got) - exact) <= Fraction(math.ulp(float(exact))), (a, got)

    def test_c_strictly_convex_on_grid(self):
        a1, a3 = A_GRID[:-2], A_GRID[2:]
        mid = (a1 + a3) / 2.0
        c = np.vectorize(weight_c)
        assert np.all(c(mid) < (c(a1) + c(a3)) / 2.0)


def running_sums(increments, cond_second_moments):
    """M_k, [M]_k and <M>_k for k = 0..n: the running sums from 0 of the
    increments, their squares and the conditional second moments, added left
    to right as the drivers add them."""
    inc = np.asarray(increments, dtype=float)
    csm = np.asarray(cond_second_moments, dtype=float)
    return tuple(np.cumsum([0.0, *values]) for values in (inc, inc * inc, csm))


class TestSWeighted:
    def test_zero_at_origin(self):
        _, qv, pqv = running_sums([1.0, -2.0], [1.0, 4.0])
        assert s_weighted(qv[0], pqv[0], 1 / 3) == 0.0

    def test_equal_variations_collapse(self):
        # qv[k] = pqv[k] = v gives (1 + c(a)) v
        _, qv, pqv = running_sums([2.0], [4.0])
        assert s_weighted(qv[1], pqv[1], 1 / 3) == pytest.approx(3.0 * 4.0, abs=1e-12)
        # a = 9/16: c = 1, so S = qv + pqv
        assert s_weighted(qv[1], pqv[1], 9 / 16) == pytest.approx(8.0, abs=1e-12)

    def test_monotone_in_k(self):
        rng = np.random.default_rng(2)
        _, qv, pqv = running_sums(rng.normal(size=100), rng.uniform(size=100))
        for a in (0.13, 1 / 3, 9 / 16, 3.0):
            values = s_weighted(qv, pqv, a)
            assert np.all(np.diff(values) >= 0.0)

    def test_domain_error(self):
        _, qv, pqv = running_sums([1.0], [1.0])
        with pytest.raises(ValueError):
            s_weighted(qv[1], pqv[1], 0.1)


class TestSupermartingaleWeight:
    @staticmethod
    def weight(path, t, a, k):
        m, qv, pqv = path
        return supermartingale_weight(m[k], qv[k], pqv[k], t, a)

    def test_t_zero_is_one(self):
        path = running_sums([1.0, 2.0], [1.0, 4.0])
        for k in range(3):
            assert self.weight(path, 0.0, 1 / 3, k) == 1.0

    def test_zero_path_is_one(self):
        path = running_sums([0.0] * 5, [0.0] * 5)
        for t in (-2.0, 0.5, 10.0):
            assert self.weight(path, t, 1 / 3, 5) == 1.0

    def test_positive_and_no_overflow(self):
        path = running_sums([1e3] * 10, [1e6] * 10)
        v = self.weight(path, 5.0, 1 / 3, 10)
        assert v >= 0.0 and np.isfinite(v)

    def test_overflow_is_inf(self):
        # an exponent past the float range gives inf, with no warning raised
        assert supermartingale_weight(1e3, 0.0, 0.0, 1.0, 1 / 3) == np.inf

    @given(st.floats(min_value=-1.0, max_value=1.0))
    def test_matches_direct_formula(self, t):
        path = running_sums([1.0, -0.5], [1.0, 0.25])
        m, qv, pqv = path
        a, b = 1 / 3, 2 / 3
        expected = np.exp(t * m[2] - a * t * t / 2 * qv[2] - b * t * t / 2 * pqv[2])
        assert self.weight(path, t, 1 / 3, 2) == pytest.approx(float(expected), rel=1e-12)


def test_libm_exp_gives_math_exp_bits():
    # of a float, or of each entry of an array in its shape; inf past the
    # float range, where math.exp raises
    x = np.array([[-800.0, -1.0, 0.0], [0.3, 709.78, 710.0]])
    expected = [[math.exp(v) if v < 710.0 else math.inf for v in row] for row in x.tolist()]
    assert bounds.libm_exp(x).tolist() == expected
    assert bounds.libm_exp(0.3) == math.exp(0.3)
    assert bounds.libm_exp(1e4) == math.inf


def test_array_forms_equal_float_forms():
    # one definition: on an array, each formula gives bit for bit what it
    # gives on each element as a Python float
    rng = np.random.default_rng(3)
    ms, qvs, pqvs = running_sums(rng.normal(size=300), rng.uniform(size=300))
    xs = np.concatenate((np.linspace(-60.0, 60.0, 241), [1e160, -1e160]))
    for a in (0.13, 1 / 3, 9 / 16, 3.0):
        s = s_weighted(qvs, pqvs, a)
        assert s.tobytes() == np.array(
            [s_weighted(float(q), float(v), a) for q, v in zip(qvs, pqvs)]
        ).tobytes()
        for t in (-2.0, -0.05, 0.01, 3.0):
            w = supermartingale_weight(ms, qvs, pqvs, t, a)
            assert w.tobytes() == np.array(
                [
                    supermartingale_weight(float(m), float(q), float(v), t, a)
                    for m, q, v in zip(ms, qvs, pqvs)
                ]
            ).tobytes()
        margin = hermite_margin(xs, a)
        assert margin.tobytes() == np.array([hermite_margin(float(x), a) for x in xs]).tobytes()


class TestHermite:
    def test_zero_at_origin(self):
        for a in (0.13, 1 / 3, 9 / 16, 5.0):
            assert hermite_margin(0.0, a) == 0.0

    def test_frozen_values(self):
        assert hermite_margin(1.0, 1 / 3) == pytest.approx(0.032357442440508405, abs=1e-12)
        assert hermite_margin(-2.0, 9 / 16) == pytest.approx(0.08106306637659258, abs=1e-12)

    @given(st.floats(min_value=-50.0, max_value=50.0), st.sampled_from([0.13, 0.2, 1 / 3, 9 / 16, 1.0, 2.0, 10.0]))
    def test_nonnegative(self, x, a):
        assert hermite_margin(x, a) >= -1e-12

    def test_domain_error(self):
        with pytest.raises(ValueError):
            hermite_margin(1.0, 0.125)


class TestDiscriminant:
    def test_vanishes_at_b_of_a(self):
        for a in np.linspace(0.13, 10.0, 500):
            assert abs(pab_discriminant(a, weight_b(a))) < 1e-10

    def test_sign_away_from_root(self):
        b = weight_b(1 / 3)
        assert pab_discriminant(1 / 3, b) == pytest.approx(0.0, abs=1e-12)
        assert pab_discriminant(1 / 3, 0.8) < 0.0
        assert pab_discriminant(1 / 3, 0.6) > 0.0

    def test_negative_above_root(self):
        for a in np.linspace(0.13, 10.0, 200):
            for eps in (1e-3, 0.1):
                assert pab_discriminant(a, weight_b(a) + eps) < 0.0

    def test_preconditions(self):
        with pytest.raises(ValueError):
            pab_discriminant(0.1, 0.8)
        with pytest.raises(ValueError):
            pab_discriminant(1 / 3, 0.4)
        with pytest.raises(ValueError):
            pab_discriminant(1 / 3, 1 - 1 / 3)


class TestTailBounds:
    def test_exp_tail_values(self):
        assert exp_tail_bound(3.0, 3.0, 9 / 16) == pytest.approx(2 * math.exp(-8 / 3), abs=1e-15)
        assert exp_tail_bound(3.0, 3.0, 1 / 3) == pytest.approx(2 * math.exp(-9 / 2), abs=1e-15)
        # tiny x: raw bound 2, capped at 1
        assert exp_tail_bound(1e-12, 1.0, 1 / 3) == 1.0

    def test_exp_tail_matches_special_forms(self):
        for x, y in ((0.5, 1.0), (3.0, 3.0), (2.0, 7.0)):
            assert exp_tail_bound(x, y, 9 / 16) == pytest.approx(
                min(1.0, 2 * math.exp(-8 * x * x / (9 * y))), abs=1e-15
            )
            assert exp_tail_bound(x, y, 1 / 3) == pytest.approx(
                min(1.0, 2 * math.exp(-3 * x * x / (2 * y))), abs=1e-15
            )

    def test_ratio_values(self):
        assert ratio_tail_bound(1.0, 1.0, 9 / 16) == pytest.approx(0.8222245810143749, abs=1e-12)
        assert ratio_tail_bound(2.0, 1.0, 1 / 3) == pytest.approx(0.004957504353332717, abs=1e-15)
        assert ratio_tail_bound(1e-12, 1.0, 1 / 3) == 1.0

    def test_pqv_ratio_values(self):
        # c(9/16) = 1 collapses the two ratio forms
        assert pqv_ratio_bound(1.0, 1.0, 9 / 16) == ratio_tail_bound(1.0, 1.0, 9 / 16)
        assert pqv_ratio_bound(1.0, 1.0, 1 / 3) == 1.0  # raw 2e^{-3/8} > 1
        assert pqv_ratio_bound(3.0, 1.0, 1 / 3) == pytest.approx(0.06843623662333207, abs=1e-12)

    def test_input_validation(self):
        for fn in (exp_tail_bound, ratio_tail_bound, pqv_ratio_bound):
            with pytest.raises(ValueError):
                fn(0.0, 1.0, 1 / 3)
            with pytest.raises(ValueError):
                fn(1.0, -1.0, 1 / 3)
            with pytest.raises(ValueError):
                fn(1.0, 1.0, 0.1)


class TestBaselines:
    def test_improved_dominates_bt2008(self):
        # the weighted bound at c(a) = 1 improves the BT2008 rate 1/2 to 8/9
        for x in (0.5, 1.0, 2.0, 5.0):
            for y in (0.5, 1.0, 10.0):
                assert exp_tail_bound(x, y, 9 / 16) <= bt2008_bound(x, y)

    def test_azuma_idla(self):
        assert azuma_idla_bound(0.2, 100) == pytest.approx(
            2 * math.exp(-1.5), abs=1e-15
        )

    def test_gauss_ar_root(self):
        # independent bisection oracle for h(y) = x^2
        def solve(x):
            h = lambda y: (1 + y) * math.log1p(y) - y
            lo, hi = 0.0, 100.0
            for _ in range(200):
                mid = (lo + hi) / 2
                if h(mid) < x * x:
                    lo = mid
                else:
                    hi = mid
            return (lo + hi) / 2

        yx = solve(0.4)
        assert yx == pytest.approx(0.6168213117040653, abs=1e-9)
        assert yx <= 2 * 0.4
        expected = min(1.0, 2 * math.exp(-100 * 0.16 / (2 * (1 + yx))))
        assert gauss_ar_bound(0.4, 100) == pytest.approx(expected, rel=1e-9)

    def test_gauss_ar_root_matches_mpmath(self):
        # Newton in 50 digits from above the root, where the convex h makes
        # it decrease monotonically onto the exact root; the float solve
        # must stop within 1e-12 of it wherever x^2 outgrows the spacing
        # of floats near it (first at x = 91), up to where 2 x^2 overflows

        def root(x):
            with mpmath.workdps(50):
                target, y = mpmath.mpf(x) ** 2, mpmath.mpf(max(2 * x * x, 4 * x, 1.0))
                for _ in range(500):
                    step = ((1 + y) * mpmath.log1p(y) - y - target) / mpmath.log1p(y)
                    y -= step
                    if abs(step) <= mpmath.mpf(10) ** -40 * y:
                        return float(y)
            raise AssertionError(f"no reference root at x = {x}")

        xs = [*np.linspace(0.01, 2000.0, 401), *np.geomspace(0.01, 9.4e153, 201), 91.0, 1e10]
        for x in map(float, xs):
            assert bounds._gauss_ar_root(x) == pytest.approx(root(x), rel=1e-12, abs=0.0), x

    def test_gauss_ar_root_accurate_at_small_x(self):
        # h(y) ~ y^2/2 cancels in its closed form for small y, so the solve
        # must sum its series there and stop on a relative test; the
        # reference is Newton in 60 digits from above, as in the test above

        def root(x):
            with mpmath.workdps(60):
                target, y = mpmath.mpf(x) ** 2, mpmath.mpf(max(2 * x * x, 4 * x, 1.0))
                for _ in range(500):
                    step = ((1 + y) * mpmath.log1p(y) - y - target) / mpmath.log1p(y)
                    y -= step
                    if abs(step) <= mpmath.mpf(10) ** -45 * y:
                        return float(y)
            raise AssertionError(f"no reference root at x = {x}")

        for x in map(float, np.geomspace(1e-8, 1e150, 317)):
            assert bounds._gauss_ar_root(x) == pytest.approx(root(x), rel=1e-14, abs=0.0), x

    def test_gauss_ar_bound_never_raises_below_overflow(self):
        for x in np.linspace(0.01, 2000.0, 4000):
            assert 0.0 <= gauss_ar_bound(float(x), 10) <= 1.0
        assert gauss_ar_bound(9.4e153, 10) == 0.0
        # the solve brackets the root with 2 x^2
        for x in (9.5e153, 1.34e154, 1e300):
            message = re.escape(f"too large for the Gaussian AR baseline, got {x}")
            with pytest.raises(ValueError, match=message):
                gauss_ar_bound(x, 10)

    def test_gauss_ar_linear_bound_small_x(self):
        # y_x <= 2x whenever 0 < x < 1/2
        for x in (0.05, 0.2, 0.4, 0.49):
            got = gauss_ar_bound(x, 100)
            relaxed = min(1.0, 2 * math.exp(-100 * x * x / (2 * (1 + 2 * x))))
            assert got <= relaxed + 1e-12

    def test_validation(self):
        for args in ((-1.0, 1.0), (0.0, 1.0), (1.0, 0.0), (1.0, -1.0)):
            with pytest.raises(ValueError):
                bt2008_bound(*args)
        for fn in (azuma_idla_bound, gauss_ar_bound):
            for args in ((-1.0, 100), (0.0, 100), (1.0, 0), (1.0, 2.5)):
                with pytest.raises(ValueError):
                    fn(*args)


class TestMissingFactor:
    def test_p2(self):
        scale, bound = missing_factor_bound(1.0, 2.0)
        assert scale == pytest.approx(math.sqrt(1.5), abs=1e-15)
        assert bound == pytest.approx((2 / 3) ** (1 / 3) * math.exp(-0.5), abs=1e-12)

    def test_holder_pair(self):
        hp = HolderPair.make(2.0)
        assert hp.q == 2.0
        assert hp.B == pytest.approx(2 / 3, abs=1e-15)
        assert hp.C == pytest.approx(0.8735804647362989, abs=1e-12)
        assert abs(1 / hp.p + 1 / hp.q - 1.0) < 1e-15

    def test_limit_direction(self):
        h10, h100 = HolderPair.make(10.0), HolderPair.make(100.0)
        assert 2 / 3 <= h10.B < h100.B < 1.0
        assert h10.C < h100.C < 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            missing_factor_bound(1.0, 1.5)
        with pytest.raises(ValueError):
            missing_factor_bound(0.0, 2.0)


class TestKearnsSaul:
    def test_values(self):
        assert kearns_saul_phi(0.5) == 0.5
        assert kearns_saul_phi(0.5 + 1e-12) == 0.5
        assert kearns_saul_phi(1 / 3) == pytest.approx(1 / (3 * math.log(2)), abs=1e-14)
        assert kearns_saul_phi(0.01) == pytest.approx(0.98 / math.log(99), abs=1e-14)

    @given(st.floats(min_value=1e-6, max_value=1 - 1e-6))
    def test_range(self, p):
        assert 0.0 <= kearns_saul_phi(p) <= 0.5 + 1e-15

    def test_matches_mpmath_near_half(self):
        # (q - p)/log(q/p) lost up to 2.5e-8 of its value next to p = 1/2
        near_half = [0.5 - 10.0**e for e in np.linspace(-16, -1, 600)]
        spread = np.linspace(0.001, 0.999, 402)[1:-1]
        worst = 0.0
        for p in [*near_half, *spread]:
            with mpmath.workdps(60):
                mp = mpmath.mpf(float(p))
                ref = (1 - 2 * mp) / mpmath.log((1 - mp) / mp) if mp != 0.5 else mpmath.mpf(0.5)
                worst = max(worst, float(abs(kearns_saul_phi(float(p)) - ref) / ref))
        assert worst <= 2e-15

    def test_validation(self):
        for p in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                kearns_saul_phi(p)


class TestArBound:
    def test_rate_reductions(self):
        assert ar_rate(1 / 3, 0.5) == pytest.approx(3.0, abs=1e-12)
        assert ar_rate(9 / 16, 0.5) == pytest.approx(2.0, abs=1e-12)
        d = ar_rate(9 / 16, 1 / 3)
        assert d == pytest.approx(16 / 3, abs=1e-12)
        assert 9 / 16 * d == pytest.approx(3.0, abs=1e-12)

    def test_bound_special_forms(self):
        n = 50
        for x in (0.2, 0.5, 1.0):
            assert ar_bound(x, n, 0.5, 1 / 3) == pytest.approx(
                min(1.0, 2 * math.exp(-n * x * x / 4)), abs=1e-15
            )
        for x in (0.5, 1.5, math.sqrt(3)):
            assert ar_bound(x, n, 1 / 3, 9 / 16) == pytest.approx(
                min(1.0, 2 * math.exp(-n * x * x / 27)), abs=1e-15
            )

    def test_edges(self):
        assert ar_bound(0.0, 10, 0.5, 1 / 3) == 1.0
        with pytest.raises(ValueError):
            ar_bound(1.0001, 10, 0.5, 1 / 3)  # beyond sqrt(a d(a)) = 1
        with pytest.raises(ValueError):
            ar_bound(0.5, 0, 0.5, 1 / 3)
        with pytest.raises(ValueError):
            ar_rate(1 / 3, 0.6)

    @pytest.mark.parametrize("p", [5e-324, 1e-300])
    def test_rate_whose_denominator_underflows_names_a_and_p(self, p):
        # p^2 + pq c(a) rounds to 0, so d(a) would divide by zero
        with pytest.raises(ValueError, match=f"a = 1e\\+150, p = {p}"):
            ar_rate(1e150, p)


class TestIdlaConstants:
    def test_third_closed_form(self):
        for n in (1, 2, 5, 10, 100, 10_000):
            expected = (10 * n * n + 33 * n + 29) / (6.0 * (n + 1) ** 2)
            assert idla_cn(n, 1 / 3) == pytest.approx(expected, rel=1e-12)
        assert idla_cn(1, 1 / 3) == pytest.approx(3.0, abs=1e-12)

    def test_quarter_closed_form(self):
        # direct expansion of the defining formula with c(25/96) = 3:
        # (2n+1)/(n+1) + (4n+6)/(n+1)^2 = (2n^2 + 7n + 7)/(n+1)^2
        for n in (1, 2, 5, 10, 100, 10_000):
            expected = (2 * n * n + 7 * n + 7) / float(n + 1) ** 2
            assert idla_cn(n, 25 / 96) == pytest.approx(expected, rel=1e-12)

    def test_sweep_caps(self):
        ns = np.arange(1, 1_000_001, dtype=float)
        c = 2.0
        cn = (2 * ns + 1) / (ns + 1) * (3 + c) / 6 + (ns * (1 + c) + 2 * c) / (ns + 1) ** 2
        assert np.all(cn <= 3.0 + 1e-12)
        assert np.all(cn + (ns + 2) / (3 * ns) <= 4.0 + 1e-12)

    def test_dn(self):
        assert idla_dn(10, 1 / 3) == pytest.approx(idla_cn(10, 1 / 3) + 12 / 30, abs=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            idla_cn(10, 0.6)  # above 9/16
        with pytest.raises(ValueError):
            idla_cn(0, 1 / 3)
        idla_cn(10, 9 / 16)  # closed endpoint accepted

    def test_bounds_remark_caps(self):
        # c_n <= 3 and d_n <= 4 at a = 1/3, so the exact bound is at least as
        # sharp as the remark's simplified forms
        for n in (1, 10, 100):
            for x in (0.1, 0.5, 1.0):
                scaled, sqrt_scaled = idla_bounds(x, n, 1 / 3)
                assert scaled <= min(1.0, 2 * math.exp(-n * x * x / 2)) + 1e-15
        for x in (1.0, 2.0, 4.0):
            _, sqrt_scaled = idla_bounds(x, 100, 1 / 3)
            relaxed = (2 / x) ** (2 / 3) * math.exp(-x * x / 12)
            assert sqrt_scaled <= min(1.0, relaxed) + 1e-15


class TestLearning:
    def test_threshold_values(self):
        assert learning_threshold(100, 1 / 3, 0.2, 1.0) == pytest.approx(
            math.sqrt(-2 * math.log(0.2) / 100), abs=1e-15
        )
        assert learning_threshold(100, 1 / 3, 0.2, 0.0) == pytest.approx(
            0.10358371533640798, abs=1e-12
        )
        assert learning_threshold(100, 1 / 3, 1.0, 0.5) == 0.0

    def test_threshold_shrinks_with_vbar(self):
        full = learning_threshold(100, 1 / 3, 0.2, 1.0)
        for v in (0.0, 0.3, 0.9):
            assert learning_threshold(100, 1 / 3, 0.2, v) < full

    def test_phi_inverse_value(self):
        # closed-form evaluation; the quoted 0.220 is not reproduced by the
        # stated formula and is deliberately not asserted
        got = learning_phi_inverse(0.0, 100, 1 / 3, 0.2)
        assert got == pytest.approx(0.11486752393651311, abs=1e-10)

    def test_floor(self):
        # m(1/3) = 6, so delta = 0.2 needs n >= 2 ln 5, i.e. n >= 4
        assert bounds.learning_m(1 / 3) == pytest.approx(6.0, abs=1e-12)
        with pytest.raises(ValueError):
            learning_phi_inverse(0.0, 3, 1 / 3, 0.2)
        learning_phi_inverse(0.0, 4, 1 / 3, 0.2)

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.01, max_value=0.99),
    )
    @settings(max_examples=200)
    def test_phi_roundtrip(self, r, delta):
        inv = learning_phi_inverse(r, 100, 1 / 3, delta)
        assert learning_phi(inv, 100, 1 / 3, delta) == pytest.approx(r, abs=1e-10)

    def test_increasing_in_r(self):
        grid = np.linspace(0.0, 1.0, 101)
        inv = [learning_phi_inverse(r, 100, 1 / 3, 0.2) for r in grid]
        cbg = [cbg_threshold(r, 100, 0.2) for r in grid]
        assert all(b > a for a, b in zip(inv, inv[1:]))
        assert all(b > a for a, b in zip(cbg, cbg[1:]))

    def test_phi_inverse_array_equals_floats(self):
        r_hat = np.concatenate((np.linspace(0.0, 1.0, 1001), np.random.default_rng(3).random(1000)))
        got = learning_phi_inverse(r_hat, 100, 1 / 3, 0.2)
        expected = [learning_phi_inverse(float(r), 100, 1 / 3, 0.2) for r in r_hat]
        assert all(type(x) is float for x in expected)
        assert got.tobytes() == np.array(expected).tobytes()

    def test_phi_inverse_range_checks_every_element(self):
        for bad in (-1e-300, 1.0 + 1e-15, math.nan):
            r_hat = np.full(100, 0.5)
            r_hat[57] = bad
            with pytest.raises(ValueError, match="r_hat must lie in"):
                learning_phi_inverse(r_hat, 100, 1 / 3, 0.2)
            with pytest.raises(ValueError, match="r_hat must lie in"):
                learning_phi_inverse(bad, 100, 1 / 3, 0.2)

    def test_cbg_values(self):
        assert cbg_threshold(0.0, 100, 0.2) == pytest.approx(0.9748980723967956, abs=1e-12)
        # effective horizon: 36 log(3/delta) for r_hat = 0
        assert 36 * math.log(3 / 0.2) <= 98.0
        assert cbg_threshold(0.0, 10**9, 0.2) < 1e-6

    def test_cbg_is_finite_where_its_quotient_overflows(self):
        # (n r + 3) / delta overflows to inf; its log is about 717
        cbg = cbg_threshold(0.5, 10**12, 1e-300)
        log_term = math.log(0.5e12 + 3.0) + 300 * math.log(10.0)
        assert cbg == pytest.approx(0.5 + 36e-12 * log_term + 2 * math.sqrt(0.5e-12 * log_term))

    def test_validation(self):
        with pytest.raises(ValueError):
            learning_threshold(100, 0.6, 0.2, 1.0)
        with pytest.raises(ValueError):
            learning_threshold(100, 1 / 3, 0.0, 1.0)
        with pytest.raises(ValueError):
            learning_threshold(100, 1 / 3, 0.2, 1.5)
        with pytest.raises(ValueError):
            cbg_threshold(-0.1, 100, 0.2)


# The accuracy table: each closed form of bounds against a 50-digit mpmath
# reference on a fixed grid of its domain.  Each tolerance is the bound of a
# first-order error model, rounded up, written down before the table first
# ran.  u = 2^-53 is the unit roundoff.  An input double is exact; + - * /
# and sqrt round once (u); math's exp, log and pow are within 1 ulp (2u),
# numpy's SIMD exp within 4 ulp (8u); weight_c and weight_b are within 2 ulp
# (4u, TestWeights).  A sum of nonnegative terms adds u to the largest
# relative error among them; exp(z) turns an error of e * |z| in z into a
# relative error of e * |z|.  A miss is a defect in the closed form: never
# widen its tolerance.
U = 2.0**-53


def _mp_c(a):
    return 2 * (1 - 2 * a + 2 * mpmath.sqrt(a * (a + 1))) / (8 * a - 1)


def _mp_gauss_root(x):
    h = lambda y: (1 + y) * mpmath.log1p(y) - y - x * x
    return mpmath.findroot(h, (mpmath.mpf(0), max(2 * x * x, 4 * x)), solver="anderson")


def _mp_ar_rate(a, p):
    c = _mp_c(a)
    return 4 * ((1 - p) ** 2 + p * (1 - p) * c) ** 2 / (p * p + p * (1 - p) * c)


def _mp_idla_cn(n, a):
    c = _mp_c(a)
    return (2 * n + 1) / (n + 1) * (3 + c) / 6 + (n * (1 + c) + 2 * c) / (n + 1) ** 2


def _mp_learning_B(n, a, delta):
    return -2 * a * mpmath.log(delta) / n


def _ar_x_grid():
    # x = f sqrt(a d(a)) stays inside the bound's range [0, sqrt(a d(a))]
    return [
        (f * math.sqrt(a * ar_rate(a, p)), n, p, a)
        for f in (0.0, 0.1, 0.5, 0.9)
        for n in (1, 50, 1000)
        for p in (0.1, 0.25, 0.5)
        for a in (0.13, 1 / 3, 9 / 16, 3.0)
    ]


def _idla_scaled_grid():
    # x = s/sqrt(n) keeps n x^2 on the same scale for every n
    return [
        (s / math.sqrt(n), n, a)
        for s in (0.3, 1.0, 3.0, 10.0)
        for n in (1, 10, 100, 10_000)
        for a in (0.13, 1 / 3, 9 / 16)
    ]


def _grid(*axes):
    return list(itertools.product(*axes))


A_WIDE = (0.13, 9 / 55, 1 / 3, 9 / 16, 3.0, 1e3)
A_TAIL = (0.13, 1 / 3, 9 / 16, 3.0)
A_NARROW = (0.13, 9 / 55, 4 / 21, 9 / 40, 25 / 96, 1 / 3, 0.5, 9 / 16)
S_VALUES = (0.0, 1e-300, 0.7, 3.0, 12.5, 1e5, 1e200)


def _exp_tol(ulps, z, ref):
    """For 2 exp(-z): a relative error of ulps * u in z, and exp's own."""
    return ulps * U * (1.0 + z) * ref


@dataclass(frozen=True)
class Accuracy:
    """One row: fn against ref (the same formula in mpmath) on grid, each
    point within tol(*point, ref) of the reference ref."""

    fn: Callable
    ref: Callable
    grid: list
    tol: Callable


ACCURACY = {
    # qv + c pqv: c 4u, the product u, a sum of nonnegatives u
    "s_weighted": Accuracy(
        s_weighted,
        lambda qv, pqv, a: qv + _mp_c(a) * pqv,
        _grid(S_VALUES, S_VALUES, A_WIDE),
        lambda qv, pqv, a, ref: 8 * U * ref,
    ),
    # exponent t m - 0.5 a t t qv - 0.5 b t t pqv: the terms carry u, 3u and
    # 7u, the two subtractions u each of what they add, so the exponent is
    # off by at most 8u times S, the sum of the terms' magnitudes; np.exp 8u
    "supermartingale_weight": Accuracy(
        supermartingale_weight,
        lambda m, qv, pqv, t, a: mpmath.exp(
            t * m - a * t * t / 2 * qv - a * _mp_c(a) * t * t / 2 * pqv
        ),
        _grid(
            (-20.0, -1.5, 0.0, 2.5, 30.0),
            (0.0, 0.7, 12.0),
            (0.0, 0.7, 12.0),
            (-2.0, -0.05, 0.01, 1.5),
            A_TAIL,
        ),
        lambda m, qv, pqv, t, a, ref: 16
        * U
        * (1 + abs(t * m) + 0.5 * t * t * (a * qv + weight_b(a) * pqv))
        * ref,
    ),
    # absolute: P = 1 + x + Q, Q = b x^2/2 off by 7u, P by u(2(1 + |x|) + 8Q);
    # e = exp(x - a x^2/2) off by e(3u(|x| + a x^2/2) + 8u); the difference u
    "hermite_margin": Accuracy(
        hermite_margin,
        lambda x, a: 1 + x + a * _mp_c(a) * x * x / 2 - mpmath.exp(x - a * x * x / 2),
        _grid(
            (-40.0, -12.0, -3.0, -1.0, -1e-3, -1e-8, 0.0, 1e-8, 1e-3, 0.5, 1.0, 3.0, 12.0, 40.0),
            A_TAIL,
        ),
        lambda x, a, ref: 16
        * U
        * (
            1
            + abs(x)
            + 0.5 * weight_b(a) * x * x
            + math.exp(x - 0.5 * a * x * x) * (1 + abs(x) + 0.5 * a * x * x)
        ),
    ),
    # absolute: D1 = (2a - b)^2/4 off by 6u D1; s = a + b - 1 by u(a + b + |s|),
    # so D2 = 2ab s by 2ab u(a + b + 3|s|); the difference u(D1 + |D2|)
    "pab_discriminant": Accuracy(
        pab_discriminant,
        lambda a, b: (2 * a - b) ** 2 / 4 - 2 * a * b * (a + b - 1),
        [
            (a, b)
            for a in (0.13, 9 / 55, 1 / 3, 9 / 16, 3.0)
            for b in (0.51, 0.6, 0.7, 1.0, 3.0, weight_b(a))
            if b != 1.0 - a
        ],
        lambda a, b, ref: 8
        * U
        * ((2 * a - b) ** 2 / 4 + 2 * a * b * (a + b + abs(a + b - 1))),
    ),
    # z = x^2/(2ay): 3u; math.exp 2u
    "exp_tail_bound": Accuracy(
        exp_tail_bound,
        lambda x, y, a: min(1, 2 * mpmath.exp(-x * x / (2 * a * y))),
        _grid((0.1, 1.0, 3.0, 8.0), (0.5, 10.0, 1e3), A_TAIL),
        lambda x, y, a, ref: _exp_tol(4, x * x / (2 * a * y), ref),
    ),
    # z = x^2 y/(2a): 3u; math.exp 2u
    "ratio_tail_bound": Accuracy(
        ratio_tail_bound,
        lambda x, y, a: min(1, 2 * mpmath.exp(-x * x * y / (2 * a))),
        _grid((0.01, 0.1, 1.0, 2.5), (0.5, 10.0, 20.0), A_TAIL),
        lambda x, y, a, ref: _exp_tol(4, x * x * y / (2 * a), ref),
    ),
    # z = x^2 y/(2a c c): the numerator 2u, the denominator 10u, the quotient
    # u; math.exp 2u
    "pqv_ratio_bound": Accuracy(
        pqv_ratio_bound,
        lambda x, y, a: min(1, 2 * mpmath.exp(-x * x * y / (2 * a * _mp_c(a) ** 2))),
        _grid((0.01, 0.1, 1.0, 2.0), (0.5, 10.0, 20.0), A_TAIL),
        lambda x, y, a, ref: _exp_tol(16, x * x * y / (2 * a * weight_c(a) ** 2), ref),
    ),
    # z = x^2/(2y): 2u; math.exp 2u
    "bt2008_bound": Accuracy(
        bt2008_bound,
        lambda x, y: min(1, 2 * mpmath.exp(-x * x / (2 * y))),
        _grid((0.1, 1.0, 3.0, 10.0), (0.5, 10.0, 1e3)),
        lambda x, y, ref: _exp_tol(4, x * x / (2 * y), ref),
    ),
    # z = 3 n x^2/8: 2u; math.exp 2u
    "azuma_idla_bound": Accuracy(
        azuma_idla_bound,
        lambda x, n: min(1, 2 * mpmath.exp(-3 * n * x * x / 8)),
        _grid((0.01, 0.1, 0.5, 1.0), (1, 10, 100, 1000)),
        lambda x, n, ref: _exp_tol(4, 3 * n * x * x / 8, ref),
    ),
    # z = n x^2/(2(1 + y_x)): 4u, and the root y_x's relative error, at most
    # 1e-14 (TestBaselines); math.exp 2u
    "gauss_ar_bound": Accuracy(
        gauss_ar_bound,
        lambda x, n: min(1, 2 * mpmath.exp(-n * x * x / (2 * (1 + _mp_gauss_root(x))))),
        _grid((0.05, 0.4, 1.0, 3.0), (1, 10, 100, 500)),
        lambda x, n, ref: (8 * U + 1e-14)
        * (1 + n * x * x / (2 * (1 + bounds._gauss_ar_root(x))))
        * ref,
    ),
    # B = q/(2q - 1) is off by 5u, and 1/sqrt(B) by 4.5u
    "missing_factor_bound[scale]": Accuracy(
        lambda x, p: missing_factor_bound(x, p)[0],
        lambda x, p: 1 / mpmath.sqrt((p / (p - 1)) / (2 * p / (p - 1) - 1)),
        _grid((0.1, 0.5, 1.0, 2.0, 5.0, 20.0), (2.0, 2.5, 3.0, 4.0, 10.0, 100.0)),
        lambda x, p, ref: 8 * U * ref,
    ),
    # C = B^(B/2) 6u, x^(-B) 5u|ln x| + 2u, exp(-x^2/2) u x^2/2 + 2u, the
    # two products 2u
    "missing_factor_bound[bound]": Accuracy(
        lambda x, p: missing_factor_bound(x, p)[1],
        lambda x, p: min(
            1,
            (B := (p / (p - 1)) / (2 * p / (p - 1) - 1)) ** (B / 2)
            * x ** (-B)
            * mpmath.exp(-x * x / 2),
        ),
        _grid((0.1, 0.5, 1.0, 2.0, 5.0, 20.0), (2.0, 2.5, 3.0, 4.0, 10.0, 100.0)),
        lambda x, p, ref: 16 * U * (1 + abs(math.log(x)) + x * x / 2) * ref,
    ),
    # q = 1 - p u; q q + p q c 8u, squared 18u; p p + p q c 8u; quotient 27u
    "ar_rate": Accuracy(
        ar_rate,
        _mp_ar_rate,
        _grid(A_WIDE, (1e-100, 1e-3, 0.1, 0.25, 1 / 3, 0.4, 0.5)),
        lambda a, p, ref: 32 * U * ref,
    ),
    # a d(a) 28u; z = n p^2 x^2/(a d(a)) 33u; math.exp 2u
    "ar_bound": Accuracy(
        ar_bound,
        lambda x, n, p, a: min(1, 2 * mpmath.exp(-n * p * p * x * x / (a * _mp_ar_rate(a, p)))),
        _ar_x_grid(),
        lambda x, n, p, a, ref: _exp_tol(40, n * p * p * x * x / (a * ar_rate(a, p)), ref),
    ),
    # (2n + 1)/(n + 1) (3 + c)/6 8u; (n(1 + c) + 2c)/(n + 1)^2 8u; the sum u
    "idla_cn": Accuracy(
        idla_cn,
        _mp_idla_cn,
        _grid((1, 2, 3, 10, 100, 10_000, 1_000_000), A_NARROW),
        lambda n, a, ref: 12 * U * ref,
    ),
    # c_n 9u; (n + 2)/(3n) u; the sum u
    "idla_dn": Accuracy(
        idla_dn,
        lambda n, a: _mp_idla_cn(n, a) + (n + 2) / (3 * n),
        _grid((1, 2, 3, 10, 100, 10_000, 1_000_000), A_NARROW),
        lambda n, a, ref: 12 * U * ref,
    ),
    # z = n x^2/(2a c_n): 13u; math.exp 2u
    "idla_bounds[scaled]": Accuracy(
        lambda x, n, a: idla_bounds(x, n, a)[0],
        lambda x, n, a: min(1, 2 * mpmath.exp(-n * x * x / (2 * a * _mp_idla_cn(n, a)))),
        _idla_scaled_grid(),
        lambda x, n, a, ref: _exp_tol(16, n * x * x / (2 * a * idla_cn(n, a)), ref),
    ),
    # d_n^(1/3) 0.5u|ln d_n| + 5.4u; x^(-2/3) 0.7u|ln x| + 2u;
    # exp(-x^2/(3 d_n)) 13u z + 2u; the two products 2u
    "idla_bounds[sqrt_scaled]": Accuracy(
        lambda x, n, a: idla_bounds(x, n, a)[1],
        lambda x, n, a: min(
            1,
            (d := _mp_idla_cn(n, a) + (n + 2) / (3 * n)) ** (mpmath.mpf(1) / 3)
            * x ** (-mpmath.mpf(2) / 3)
            * mpmath.exp(-x * x / (3 * d)),
        ),
        _grid((0.1, 0.5, 1.0, 3.0, 10.0, 30.0), (1, 10, 100, 10_000), (0.13, 1 / 3, 9 / 16)),
        lambda x, n, a, ref: 16
        * U
        * (
            1
            + abs(math.log(idla_dn(n, a)))
            + abs(math.log(x))
            + x * x / (3 * idla_dn(n, a))
        )
        * ref,
    ),
    # 1 + c 5u, c c 9u
    "learning_m": Accuracy(
        bounds.learning_m,
        lambda a: max(4 * (1 + _mp_c(a)), _mp_c(a) ** 2) / 2,
        _grid(A_NARROW),
        lambda a, ref: 12 * U * ref,
    ),
    # 1 + c v 6u; log(delta) 2u; the product and quotient 11u; sqrt 6.5u
    "learning_threshold": Accuracy(
        learning_threshold,
        lambda n, a, delta, v: mpmath.sqrt(
            -2 * a * (1 + _mp_c(a) * v) * mpmath.log(delta) / n
        ),
        _grid(
            (1, 100, 100_000),
            (0.13, 1 / 3, 9 / 16),
            (1e-300, 1e-6, 0.05, 0.2, 0.9, 1 - 2.0**-30, 1.0),
            (0.0, 0.3, 1.0),
        ),
        lambda n, a, delta, v, ref: 8 * U * ref,
    ),
    # absolute: B 4u; sqrt(B (1 + c x)) 6.5u; the difference u
    "learning_phi": Accuracy(
        learning_phi,
        lambda x, n, a, delta: x
        - mpmath.sqrt(_mp_learning_B(n, a, delta) * (1 + _mp_c(a) * x)),
        _grid((0.0, 0.1, 0.5, 1.0), (100, 10_000), (9 / 55, 1 / 3, 9 / 16), (0.05, 0.2, 0.9)),
        lambda x, n, a, delta, ref: 8
        * U
        * (x + math.sqrt(-2 * a * math.log(delta) / n * (1 + weight_c(a) * x))),
    ),
    # B 4u; c B / 2 9u; B (4 + 4 c r + c c B) 20u, its root 11u; the
    # nonnegative sum 12u
    "learning_phi_inverse": Accuracy(
        learning_phi_inverse,
        lambda r, n, a, delta: r
        + _mp_c(a) * _mp_learning_B(n, a, delta) / 2
        + mpmath.sqrt(
            _mp_learning_B(n, a, delta)
            * (4 + 4 * _mp_c(a) * r + _mp_c(a) ** 2 * _mp_learning_B(n, a, delta))
        )
        / 2,
        _grid(
            (0.0, 1e-3, 0.25, 0.5, 1.0),
            (200, 10_000, 1_000_000),
            (9 / 55, 1 / 3, 9 / 16),
            (1e-6, 0.05, 0.2, 0.9),
        ),
        lambda r, n, a, delta, ref: 16 * U * ref,
    ),
    # L = log(n r + 3) - log(delta), a sum of nonnegatives, 5u; 36 L/n 7u;
    # sqrt(r L/n) 4.5u; the nonnegative sum 9u
    "cbg_threshold": Accuracy(
        cbg_threshold,
        lambda r, n, delta: r
        + 36 * (L := mpmath.log(n * r + 3) - mpmath.log(delta)) / n
        + 2 * mpmath.sqrt(r / n * L),
        _grid((0.0, 0.01, 0.5, 1.0), (1, 100, 10**6, 10**12), (1e-300, 0.05, 0.2, 1.0)),
        lambda r, n, delta, ref: 12 * U * ref,
    ),
}


@pytest.mark.parametrize("name", ACCURACY)
def test_matches_mpmath_within_error_model(name):
    row = ACCURACY[name]
    misses = []
    with mpmath.workdps(50):
        for point in row.grid:
            got = row.fn(*point)
            ref = row.ref(*map(mpmath.mpf, point))
            if not abs(mpmath.mpf(got) - ref) <= row.tol(*point, float(ref)):
                misses.append((point, got, float(ref)))
    assert not misses, f"{len(misses)} of {len(row.grid)} points miss, first {misses[0]}"
