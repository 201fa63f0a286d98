"""Weighted self-normalized martingale bounds with simulators and Monte Carlo verification.

The names below are loaded from their submodules on first access (PEP 562),
so ``import selfnorm`` imports no numpy; ``selfnorm.cli`` relies on that to
set its OpenBLAS default before numpy loads.
"""

import importlib

__version__ = "0.1.0"

# each exported name: the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(
        (
            "HolderPair",
            "ar_bound",
            "ar_rate",
            "azuma_idla_bound",
            "bt2008_bound",
            "cbg_threshold",
            "exp_tail_bound",
            "gauss_ar_bound",
            "hermite_margin",
            "idla_bounds",
            "idla_cn",
            "idla_dn",
            "kearns_saul_phi",
            "learning_phi",
            "learning_phi_inverse",
            "learning_threshold",
            "missing_factor_bound",
            "pab_discriminant",
            "pqv_ratio_bound",
            "ratio_tail_bound",
            "weight_b",
            "weight_c",
        ),
        "bounds",
    ),
    **dict.fromkeys(
        ("MartingalePath", "accumulate", "s_weighted", "supermartingale_weight"), "martingale"
    ),
    "estimate_expectation": "montecarlo",
    **dict.fromkeys(
        (
            "AR1Spec",
            "IDLASpec",
            "LearnSpec",
            "ProcessTrace",
            "ar1_simulate",
            "idla_exact_moments",
            "idla_simulate",
            "learning_simulate",
        ),
        "processes",
    ),
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
