"""Secret-key rates for correlated sources: exact interaction measures,
omniscience rates, budgeted-capacity bounds, one-way two-user curves, and
finite-blocklength linear schemes."""

import importlib

from .errors import InternalCheckError, ResourceCapError, SkalcError, ValidationError
from .mmi import MmiResult, mmi, pin_strength
from .omniscience import RateVector, RcoResult, rco, unconstrained_capacity
from .source_model import (
    EdgeRestriction,
    HypergraphicalSource,
    JointPMF,
    conditional_entropy,
    entropy,
    gacs_korner,
    is_pin,
    load_source,
    parse_source,
    restrict,
)

# Imported on first use of one of their names: two_user needs numpy, and the
# mmi and rco commands need none of these modules.
_LAZY = {
    **dict.fromkeys(("LowerBoundResult", "LowerBoundWitness", "PinCurves", "alpha_s_lower_bound",
                     "duality_upper_bound", "lower_bound_curve", "pin_curves", "sandwich",
                     "witness_at"), "capacity"),
    **dict.fromkeys(("CapacityCurve", "constant_curve", "upper_concave_envelope"), "curves"),
    **dict.fromkeys(("BitSourceInstance", "LinearScheme", "RandomBinning", "TreePacking",
                     "random_binning_omniscience", "scheme_from_json", "scheme_to_json",
                     "tree_packing_scheme", "verify"), "protocol_sim"),
    **dict.fromkeys(("ChannelWitness", "DualityReport", "SweepResult",
                     "compressed_curve_one_sided", "constrained_curve_one_way", "duality_check",
                     "min_sufficient_statistic", "mutual_information", "one_way_complexity",
                     "run_sweep"), "two_user"),
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


__version__ = "0.1.0"

__all__ = [
    "EdgeRestriction", "HypergraphicalSource", "InternalCheckError", "JointPMF", "MmiResult",
    "RateVector", "RcoResult", "ResourceCapError", "SkalcError", "ValidationError",
    "conditional_entropy", "entropy", "gacs_korner", "is_pin", "load_source", "mmi",
    "parse_source", "pin_strength", "rco", "restrict", "unconstrained_capacity",
    *_LAZY,
]
