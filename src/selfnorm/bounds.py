"""Closed-form weight functions, tail bounds, and baseline comparison bounds.

Everything in this module is a pure function of its arguments.  All
probability-valued bounds are capped at 1 before return so downstream
comparison tables always hold valid probabilities.  The weighted normalizer
S_n(a) = [M]_n + c(a)<M>_n (:func:`s_weighted`) and the supermartingale
V_n(t) = exp(t M_n - (a t^2/2)[M]_n - (b(a) t^2/2)<M>_n)
(:func:`supermartingale_weight`) are written with operators only, so one
definition takes the values of a path at one step as floats or the finals of
many replicates as arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ADMISSIBLE_MIN",
    "TABLE1",
    "HolderPair",
    "weight_c",
    "weight_b",
    "s_weighted",
    "supermartingale_weight",
    "hermite_margin",
    "pab_discriminant",
    "exp_tail_bound",
    "bt2008_bound",
    "azuma_idla_bound",
    "gauss_ar_bound",
    "ratio_tail_bound",
    "pqv_ratio_bound",
    "missing_factor_bound",
    "kearns_saul_phi",
    "ar_rate",
    "ar_bound",
    "idla_cn",
    "idla_dn",
    "idla_bounds",
    "learning_m",
    "learning_threshold",
    "learning_phi",
    "learning_phi_inverse",
    "cbg_threshold",
]

# Weights are defined only for a > 1/8.
ADMISSIBLE_MIN = 0.125

# The eight special (a, c(a)) pairs.
TABLE1 = (
    (9 / 55, 10.0),
    (4 / 21, 6.0),
    (9 / 40, 4.0),
    (25 / 96, 3.0),
    (1 / 3, 2.0),
    (9 / 16, 1.0),
    (49 / 72, 4 / 5),
    (4 / 5, 2 / 3),
)


def _check_weight(a: float) -> None:
    if not a > ADMISSIBLE_MIN:
        raise ValueError(f"weight parameter a must be > 1/8, got {a}")
    # the weights take sqrt(a(a+1)), which overflows from a ~ 1.3e154 on
    if not math.isfinite(a * (a + 1.0)):
        raise ValueError(f"weight parameter a is too large, got {a}")


def _check_narrow(a: float) -> None:
    # The IDLA and learning corollaries need c(a) >= 1, i.e. a in (1/8, 9/16].
    if not (ADMISSIBLE_MIN < a <= 9 / 16):
        raise ValueError(f"a must lie in (1/8, 9/16], got {a}")


def _weight_factor(a: float) -> float:
    """1 - 2a + 2 sqrt(a(a+1)), written as 1 + 2a/(a + sqrt(a(a+1))): the
    first form subtracts nearly equal terms and is 0.0 at a = 1e16."""
    _check_weight(a)
    return 1.0 + 2.0 * a / (a + math.sqrt(a * (a + 1.0)))


def weight_c(a: float) -> float:
    """Mixing weight c(a) = 2(1 - 2a + 2*sqrt(a(a+1)))/(8a - 1)."""
    return 2.0 * _weight_factor(a) / (8.0 * a - 1.0)


def weight_b(a: float) -> float:
    """Companion weight b(a) = a * c(a), which exceeds 1/2 by about
    1/(32 a^2).  From a ~ 2e7 on that excess is below the rounding of the
    quotient, and the result is 1/2 or a few ulps above it."""
    # the excess is below half an ulp of 1/2 from a ~ 2.4e7 on, where the
    # rounded quotient could land under 1/2; 1/2 is nearer
    return max(0.5, 2.0 * a * _weight_factor(a) / (8.0 * a - 1.0))


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


@dataclass(frozen=True)
class HolderPair:
    """Moment order p with its Holder conjugate q and derived constants.

    B = q/(2q-1) and C = B**(B/2); for p in [2, inf), q in (1, 2] so
    B in [2/3, 1) and C in (0, 1].
    """

    p: float
    q: float
    B: float
    C: float

    @classmethod
    def make(cls, p: float) -> "HolderPair":
        if p < 2.0:
            raise ValueError(f"moment order p must be >= 2, got {p}")
        q = p / (p - 1.0)
        B = q / (2.0 * q - 1.0)
        return cls(p=p, q=q, B=B, C=B ** (B / 2.0))


def hermite_margin(x, a: float):
    """Slack of the pointwise inequality exp(x - a x^2/2) <= 1 + x + b(a) x^2/2,
    at a float or an array x.

    Nonnegative for every real x whenever a > 1/8.  For huge |x| the
    quadratic overflows to +inf, the margin's own limit.
    """
    b = weight_b(a)
    with np.errstate(over="ignore"):
        return (1.0 + x + 0.5 * b * x * x) - np.exp(x - 0.5 * a * x * x)


def pab_discriminant(a: float, b: float) -> float:
    """Discriminant of (ab/2) x^2 + ((2a-b)/2) x + (a+b-1).

    Vanishes exactly at b = b(a); negative for b > b(a).
    """
    _check_weight(a)
    if not b > 0.5:
        raise ValueError(f"b must be > 1/2, got {b}")
    if b == 1.0 - a:
        raise ValueError("b = 1 - a makes the polynomial degenerate")
    return (2.0 * a - b) ** 2 / 4.0 - 2.0 * a * b * (a + b - 1.0)


def _cap(p: float) -> float:
    return min(1.0, p)


def exp_tail_bound(x: float, y: float, a: float) -> float:
    """Bound on P(|M_n| >= x, S_n(a) <= y): min(1, 2 exp(-x^2/(2ay)))."""
    _check_weight(a)
    if x <= 0.0 or y <= 0.0:
        raise ValueError("x and y must be positive")
    return _cap(2.0 * math.exp(-x * x / (2.0 * a * y)))


def ratio_tail_bound(x: float, y: float, a: float) -> float:
    """Bound on P(|M_n|/S_n(a) >= x, S_n(a) >= y): min(1, 2 exp(-x^2 y/(2a)))."""
    _check_weight(a)
    if x <= 0.0 or y <= 0.0:
        raise ValueError("x and y must be positive")
    return _cap(2.0 * math.exp(-x * x * y / (2.0 * a)))


def pqv_ratio_bound(x: float, y: float, a: float) -> float:
    """Bound on P(|M_n|/<M>_n >= x, c(a)<M>_n >= [M]_n + y)."""
    c = weight_c(a)
    if x <= 0.0 or y <= 0.0:
        raise ValueError("x and y must be positive")
    return _cap(2.0 * math.exp(-x * x * y / (2.0 * a * c * c)))


def _gauss_h(y: float) -> float:
    """h(y) = (1+y)log(1+y) - y, summed as its series
    sum_{k>=2} (-1)^k y^k/(k(k-1)) below y = 1/4, where the two terms of h
    would cancel."""
    if y >= 0.25:
        return (1.0 + y) * math.log1p(y) - y
    total, power, k = 0.0, y * y, 2
    while True:
        term = power / (k * (k - 1))
        total += term if k % 2 == 0 else -term
        if term <= 1e-17 * total:
            return total
        power *= y
        k += 1


def _gauss_ar_root(x: float) -> float:
    """Unique positive root of (1+y)log(1+y) - y = x^2.

    Bracketing bisection refined by Newton; h is strictly increasing on
    (0, inf) so the bracket is safe.  The solve stops when a Newton step
    moves y by at most 1e-9 of itself, which leaves an error below the
    rounding of h, or when no float is left strictly inside the bracket,
    which is all float spacing allows once x^2 is large.  The bracket
    starts at 2x^2, so x must keep that finite (else ValueError).
    """
    target = x * x
    if not math.isfinite(2.0 * target):
        raise ValueError(f"x is too large for the Gaussian AR baseline, got {x}")
    lo, hi = 0.0, max(2.0 * target, 4.0 * x)
    while _gauss_h(hi) < target:
        hi *= 2.0
    y = 0.5 * (lo + hi)
    for _ in range(200):
        val = _gauss_h(y) - target
        if val > 0.0:
            hi = y
        else:
            lo = y
        # Newton step, falling back to bisection when it leaves the bracket
        step = y - val / math.log1p(y)
        if abs(step - y) <= 1e-9 * y:
            return step
        y = step if lo < step < hi else 0.5 * (lo + hi)
        if not lo < y < hi:
            # the bracket holds two adjacent floats; y is one of them
            return y
    raise RuntimeError("root solve for the Gaussian AR baseline did not converge")


def _check_baseline(x: float, n: int) -> None:
    if x <= 0.0:
        raise ValueError("x must be positive")
    if n < 1 or n != int(n):
        raise ValueError(f"horizon must be a positive integer, got {n}")


def bt2008_bound(x: float, y: float) -> float:
    """Baseline of Bercu and Touati (2008) on P(|M_n| >= x, [M]_n + <M>_n <= y):
    min(1, 2 exp(-x^2/(2y)))."""
    if x <= 0.0:
        raise ValueError("x must be positive")
    if y <= 0.0:
        raise ValueError("y must be positive")
    return _cap(2.0 * math.exp(-0.5 * x * x / y))


def azuma_idla_bound(x: float, n: int) -> float:
    """Azuma baseline on P(|X_n|/n >= x) for the aggregation process:
    min(1, 2 exp(-3 n x^2/8))."""
    _check_baseline(x, n)
    return _cap(2.0 * math.exp(-3.0 * n * x * x / 8.0))


def gauss_ar_bound(x: float, n: int) -> float:
    """Gaussian-noise baseline on P(|theta_hat - theta| >= x) for the AR(1)
    estimator: min(1, 2 exp(-n x^2/(2(1 + y_x)))), where y_x is the positive
    root of (1+y)log(1+y) - y = x^2."""
    _check_baseline(x, n)
    return _cap(2.0 * math.exp(-n * x * x / (2.0 * (1.0 + _gauss_ar_root(x)))))


def missing_factor_bound(x: float, p: float) -> tuple[float, float]:
    """Variation-free bound with the polynomial missing factor.

    Returns (threshold_scale, bound) where the deviation level is
    x * threshold_scale = x / sqrt(B_q) and the tail probability is
    min(1, C_q * x^(-B_q) * exp(-x^2/2)).
    """
    if x <= 0.0:
        raise ValueError("x must be positive")
    hp = HolderPair.make(p)
    bound = _cap(hp.C * x ** (-hp.B) * math.exp(-0.5 * x * x))
    return 1.0 / math.sqrt(hp.B), bound


def kearns_saul_phi(p: float) -> float:
    """phi(p) = (q - p)/log(q/p) with q = 1 - p; takes the limit 1/2 at p = 1/2.

    With d = q - p, phi = d / (2 atanh d), which keeps its digits near
    p = 1/2, where q/p rounds to 1.  d = 1 - 2p is exact only for p >= 1/4,
    so that form is used only where |d| < 1/2.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    d = 1.0 - 2.0 * p
    if d == 0.0:
        return 0.5
    if abs(d) < 0.5:
        return d / (2.0 * math.atanh(d))
    q = 1.0 - p
    return (q - p) / math.log(q / p)


def ar_rate(a: float, p: float) -> float:
    """d(a) = 4 (q^2 + pq c(a))^2 / (p^2 + pq c(a)) with q = 1 - p."""
    c = weight_c(a)
    if not 0.0 < p <= 0.5:
        raise ValueError(f"p must lie in (0, 1/2], got {p}")
    q = 1.0 - p
    denom = p * p + p * q * c
    if denom == 0.0:
        raise ValueError(f"d(a) overflows: p^2 + pq c(a) underflows to 0 at a = {a}, p = {p}")
    return 4.0 * (q * q + p * q * c) ** 2 / denom


def ar_bound(x: float, n: int, p: float, a: float) -> float:
    """Deviation bound for the AR(1) least-squares estimator.

    min(1, 2 exp(-n p^2 x^2 / (a d(a)))), valid for x in [0, sqrt(a d(a))].
    """
    if n < 1:
        raise ValueError(f"horizon must be >= 1, got {n}")
    ad = a * ar_rate(a, p)
    if x < 0.0 or x > math.sqrt(ad):
        raise ValueError(f"x must lie in [0, sqrt(a d(a))] = [0, {math.sqrt(ad):g}]")
    return _cap(2.0 * math.exp(-n * p * p * x * x / ad))


def idla_cn(n: int, a: float) -> float:
    """Horizon-dependent variation cap c_n(a) for the aggregation process."""
    _check_narrow(a)
    if n < 1:
        raise ValueError(f"horizon must be >= 1, got {n}")
    c = weight_c(a)
    return ((2.0 * n + 1.0) / (n + 1.0)) * ((3.0 + c) / 6.0) + (
        n * (1.0 + c) + 2.0 * c
    ) / (n + 1.0) ** 2


def idla_dn(n: int, a: float) -> float:
    """d_n(a) = c_n(a) + (n+2)/(3n)."""
    return idla_cn(n, a) + (n + 2.0) / (3.0 * n)


def idla_bounds(x: float, n: int, a: float) -> tuple[float, float]:
    """Tail bounds for the aggregation midpoint at the two scalings.

    Returns (scaled, sqrt_scaled) bounding P(|X_n|/n >= x) and
    P(|X_n|/sqrt(n) >= x) respectively.
    """
    if x <= 0.0:
        raise ValueError("x must be positive")
    cn = idla_cn(n, a)
    dn = idla_dn(n, a)
    scaled = _cap(2.0 * math.exp(-n * x * x / (2.0 * a * cn)))
    sqrt_scaled = _cap(dn ** (1.0 / 3.0) * x ** (-2.0 / 3.0) * math.exp(-x * x / (3.0 * dn)))
    return scaled, sqrt_scaled


def learning_m(a: float) -> float:
    """m(a) = max(4(1 + c(a)), c(a)^2) / 2, the horizon floor multiplier."""
    c = weight_c(a)
    _check_narrow(a)
    return max(4.0 * (1.0 + c), c * c) / 2.0


def _check_delta(delta: float) -> None:
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")


def learning_threshold(n: int, a: float, delta: float, v_bar: float) -> float:
    """Deviation width such that P(avg risk >= empirical risk + width) <= delta.

    Equals sqrt(-2a (1 + c(a) v_bar) log(delta) / n).
    """
    _check_narrow(a)
    _check_delta(delta)
    if n < 1:
        raise ValueError(f"horizon must be >= 1, got {n}")
    if not 0.0 <= v_bar <= 1.0:
        raise ValueError(f"v_bar must lie in [0, 1], got {v_bar}")
    return math.sqrt(-2.0 * a * (1.0 + weight_c(a) * v_bar) * math.log(delta) / n)


def _learning_B(n: int, a: float, delta: float) -> float:
    return -2.0 * a * math.log(delta) / n


def learning_phi(x: float, n: int, a: float, delta: float) -> float:
    """Forward map x - sqrt(B (1 + c(a) x)) with B = -2a log(delta)/n."""
    _check_narrow(a)
    _check_delta(delta)
    B = _learning_B(n, a, delta)
    return x - math.sqrt(B * (1.0 + weight_c(a) * x))


def learning_phi_inverse(r_hat, n: int, a: float, delta: float):
    """Explicit risk threshold: inverse of learning_phi at the empirical risk,
    a float or an array of them.

    Requires n >= -a m(a) log(delta); below that floor the forward map is
    not guaranteed monotone and the inversion is refused.
    """
    _check_narrow(a)
    _check_delta(delta)
    floor = -a * learning_m(a) * math.log(delta)
    if n < floor:
        raise ValueError(
            f"horizon n={n} below the invertibility floor {floor:g}; "
            f"need n >= {math.ceil(floor)}"
        )
    r = np.asarray(r_hat)
    outside = r[~((0.0 <= r) & (r <= 1.0))]
    if outside.size:
        raise ValueError(f"r_hat must lie in [0, 1], got {outside[0]}")
    c = weight_c(a)
    B = _learning_B(n, a, delta)
    phi = r_hat + 0.5 * c * B + 0.5 * np.sqrt(B * (4.0 + 4.0 * c * r_hat + c * c * B))
    # np.sqrt rounds as math.sqrt does; a float r_hat gets a float back
    return float(phi) if np.ndim(phi) == 0 else phi


def cbg_threshold(r_hat: float, n: int, delta: float) -> float:
    """Cesa-Bianchi/Gentile-style risk threshold used as a comparison baseline."""
    if not 0.0 <= r_hat <= 1.0:
        raise ValueError(f"r_hat must lie in [0, 1], got {r_hat}")
    if n < 1:
        raise ValueError(f"horizon must be >= 1, got {n}")
    _check_delta(delta)
    # a log of each factor: their quotient overflows when delta is tiny
    log_term = math.log(n * r_hat + 3.0) - math.log(delta)
    return r_hat + 36.0 / n * log_term + 2.0 * math.sqrt(r_hat / n * log_term)
