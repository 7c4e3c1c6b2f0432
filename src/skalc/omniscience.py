"""Minimum total rate for omniscience and the unconstrained key capacity.

The omniscience LP asks for per-user discussion rates r with

    r(B) >= H(Z_B | Z_{V \\ B})   for every nonempty proper subset B,

minimizing the total rate.  The program is solved exactly by running the
simplex on its dual, which has only |V| rows against the 2^|V| - 2 subset
columns; the optimal primal rates fall out of the dual multipliers and are
re-checked against every subset constraint before being returned.

The unconstrained secrecy capacity is the partition-based mutual
information, and it must equal H(Z_V) minus the omniscience rate; that
identity is asserted whenever both sides are computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .mmi import DEFAULT_USER_CAP as _MMI_CAP, mmi as _mmi
from .errors import InternalCheckError, ResourceCapError, ValidationError
from .lp import simplex_min
from .source_model import HypergraphicalSource, SourceSpec, entropy, entropy_table

__all__ = ["RateVector", "RcoResult", "rco", "unconstrained_capacity", "RCO_USER_CAP"]

RCO_USER_CAP = 12


@dataclass(frozen=True)
class RateVector:
    """Nonnegative per-user discussion rates in bits."""

    rates: dict[str, Fraction | float]


@dataclass(frozen=True)
class RcoResult:
    value: Fraction | float
    witness: RateVector


def rco(source: SourceSpec) -> RcoResult:
    """Minimum total discussion rate for omniscience, with an optimal witness.

    Exact rationals for hypergraphical sources.  For pmfs the float
    conditional entropies are lifted to exact rationals, the LP is still
    solved exactly, and the result is reported as floats.
    """
    n = len(source.users)
    if n > RCO_USER_CAP:
        raise ResourceCapError(f"{n} users exceed the omniscience cap {RCO_USER_CAP}")
    exact = isinstance(source, HypergraphicalSource)
    full = (1 << n) - 1
    masks = list(range(1, full))
    if not masks:
        raise ValidationError("omniscience needs at least two users")
    # H(Z_B | Z_{V \ B}) = H(V) - H(V \ B), from one table of all user sets.
    table = entropy_table(source)
    scale = source.denominator if exact else 1
    h = [Fraction(table[full] - table[full ^ mask]) / scale for mask in masks]

    # Dual program: maximize h.y with, per user i, sum over subsets containing
    # i of y_B at most 1.  Feasible at y = 0, so a single simplex phase runs.
    cols = len(masks)
    c = [-hv for hv in h]
    rows = [[mask >> i & 1 for mask in masks] for i in range(n)]
    sol = simplex_min(c, rows, [1] * n)
    value = -sol.value
    rates = [-d for d in sol.duals]

    # The duals certify an exactly feasible and optimal primal point; verify.
    if any(r < 0 for r in rates):
        raise InternalCheckError("negative omniscience rate from LP duals")
    if sum(rates, Fraction(0)) != value:
        raise InternalCheckError("omniscience witness total differs from LP value")
    for mask, hv in zip(masks, h):
        got = sum((rates[i] for i in range(n) if mask >> i & 1), Fraction(0))
        if got < hv:
            raise InternalCheckError(f"omniscience witness violates subset {mask:b}")

    if exact:
        witness = RateVector({u: rates[i] for i, u in enumerate(source.users)})
        return RcoResult(value, witness)
    witness = RateVector({u: float(rates[i]) for i, u in enumerate(source.users)})
    return RcoResult(float(value), witness)


def unconstrained_capacity(source: SourceSpec, cap: int = _MMI_CAP) -> Fraction | float:
    """Key rate with unlimited discussion: the partition-based MI.

    Computed as mmi(source) and asserted against H(Z_V) - rco(source), two
    independent routes that must agree (exactly for rational sources, to
    1e-9 for pmfs).
    """
    result = _mmi(source, cap=cap)
    total = entropy(source, source.users)
    via_rco = total - rco(source).value
    if isinstance(source, HypergraphicalSource):
        if via_rco != result.value:
            raise InternalCheckError(
                f"duality gap: H - rco = {via_rco} but partition search gives {result.value}"
            )
    elif abs(via_rco - result.value) > 1e-9:
        raise InternalCheckError(
            f"duality gap: H - rco = {via_rco} but partition search gives {result.value}"
        )
    return result.value
