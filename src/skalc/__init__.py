"""Secret-key rates for correlated sources: exact interaction measures,
omniscience rates, budgeted-capacity bounds, one-way two-user curves, and
finite-blocklength linear schemes."""

from .capacity import (
    LowerBoundResult,
    LowerBoundWitness,
    PinCurves,
    alpha_s_lower_bound,
    duality_upper_bound,
    gk_floor,
    lower_bound_curve,
    pin_curves,
    sandwich,
    witness_at,
)
from .curves import CapacityCurve, constant_curve, upper_concave_envelope
from .errors import InternalCheckError, ResourceCapError, SkalcError, ValidationError
from .mmi import MmiResult, mmi, pin_strength
from .omniscience import RateVector, RcoResult, rco, unconstrained_capacity
from .protocol_sim import (
    BitSourceInstance,
    LinearScheme,
    RandomBinning,
    TreePacking,
    random_binning_omniscience,
    scheme_from_json,
    scheme_to_json,
    tree_packing_scheme,
    verify,
)
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
# two_user needs numpy; it is imported on first use of one of its names.
_TWO_USER_NAMES = frozenset({
    "ChannelWitness",
    "DualityReport",
    "SweepResult",
    "compressed_curve_one_sided",
    "constrained_curve_one_way",
    "duality_check",
    "min_sufficient_statistic",
    "mutual_information",
    "one_way_complexity",
    "run_sweep",
})


def __getattr__(name):
    if name in _TWO_USER_NAMES:
        from . import two_user
        return getattr(two_user, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = [
    "BitSourceInstance",
    "CapacityCurve",
    "ChannelWitness",
    "EdgeRestriction",
    "HypergraphicalSource",
    "InternalCheckError",
    "JointPMF",
    "LinearScheme",
    "LowerBoundResult",
    "LowerBoundWitness",
    "MmiResult",
    "PinCurves",
    "RandomBinning",
    "RateVector",
    "RcoResult",
    "ResourceCapError",
    "SkalcError",
    "SweepResult",
    "TreePacking",
    "ValidationError",
    "DualityReport",
    "alpha_s_lower_bound",
    "compressed_curve_one_sided",
    "conditional_entropy",
    "constant_curve",
    "constrained_curve_one_way",
    "duality_check",
    "duality_upper_bound",
    "entropy",
    "gacs_korner",
    "gk_floor",
    "is_pin",
    "load_source",
    "lower_bound_curve",
    "min_sufficient_statistic",
    "mmi",
    "mutual_information",
    "one_way_complexity",
    "parse_source",
    "pin_curves",
    "pin_strength",
    "random_binning_omniscience",
    "rco",
    "restrict",
    "run_sweep",
    "sandwich",
    "scheme_from_json",
    "scheme_to_json",
    "tree_packing_scheme",
    "unconstrained_capacity",
    "upper_concave_envelope",
    "verify",
    "witness_at",
]
