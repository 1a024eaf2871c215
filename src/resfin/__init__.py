"""Residual finiteness, quantified.

Computes divisibility functions, residual girth, and constructive least
common multiple witnesses for free groups, the integers, and the integer
Heisenberg group, by exhaustive search over finite quotients at explicit
caps.

Every name in __all__, and every submodule (resfin.cli, resfin.lowindex,
...), is imported on first use through the module __getattr__ of PEP 562,
so a process loads only the modules it touches.
"""

import importlib

__version__ = "0.1.0"

# the submodule defining each public name
_EXPORTS = {
    "covers": (
        "CoverAnalysis", "analyze_cover", "chebyshev", "lcm_upto", "lift_closed",
        "obstruction_scan", "pnt_window", "theorem4_experiment",
    ),
    "errors": ("InputError", "InternalError", "ResourceError"),
    "lcmlib": (
        "WitnessCertificate", "cert_from_json", "cert_to_json", "closure_membership",
        "exact_lcm_small", "lcm_ball_witness", "lcm_witness", "power_set_witness",
        "verify_certificate",
    ),
    "lowindex": (
        "enumerate_normal", "enumerate_subgroups", "normal_count", "normal_subgroup_growth",
        "subgroup_count",
    ),
    "nilpotent": ("entry_bound", "girth_upper_bound_nilpotent", "heisenberg_eval"),
    "permrep": (
        "PermQuotient", "basepoint_image", "eval_word", "from_record", "image_order",
        "is_regular", "is_transitive", "orbit", "to_record",
    ),
    "separability": (
        "SepResult", "check_basic_inequality", "check_girth_inequality", "divisibility",
        "max_divisibility", "normal_divisibility", "residual_girth", "smallest_nondivisor",
    ),
    "words": (
        "Ball", "FreeWord", "SLBuilder", "SLWord", "commutator", "conjugate",
        "enumerate_ball", "format_word", "generator", "identity", "inverse", "multiply",
        "parse_word", "power", "reduce", "sl_eval", "sl_flatten", "sl_length_bound",
        "word_growth",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS or name == "cli":
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
