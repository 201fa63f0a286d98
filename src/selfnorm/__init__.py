"""Weighted self-normalized martingale bounds with simulators and Monte Carlo verification."""

from .bounds import (
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
    weight_b,
    weight_c,
)
from .martingale import MartingalePath, accumulate, s_weighted, supermartingale_weight
from .montecarlo import MCEstimate, estimate_expectation
from .processes import (
    AR1Spec,
    IDLASpec,
    LearnSpec,
    ProcessTrace,
    ar1_simulate,
    idla_exact_moments,
    idla_simulate,
    learning_simulate,
)

__version__ = "0.1.0"
