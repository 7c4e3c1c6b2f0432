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

from .mmi import mmi as _mmi
from .errors import InternalCheckError, ResourceCapError
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
    masks = range(1, full)
    # H(Z_B | Z_{V \ B}) = H(V) - H(V \ B), from one table of all user sets.
    table = entropy_table(source)
    scale = source.denominator if exact else 1
    h = [Fraction(table[full] - table[full ^ mask]) / scale for mask in masks]

    # Dual program: maximize h.y with, per user i, sum over subsets containing
    # i of y_B at most 1.  Feasible at y = 0, so a single simplex phase runs.
    c = [-hv for hv in h]
    rows = [[mask >> i & 1 for mask in masks] for i in range(n)]
    sol = simplex_min(c, rows, [1] * n)
    value = -sol.value
    rates = [-d for d in sol.duals]

    # The duals certify an exactly feasible and optimal primal point; verify,
    # with the rate of every user set from one subset-sum pass.
    if any(r < 0 for r in rates):
        raise InternalCheckError("negative omniscience rate from LP duals")
    got = [Fraction(0)] * (full + 1)
    for mask in range(1, full + 1):
        low = mask & -mask
        got[mask] = got[mask ^ low] + rates[low.bit_length() - 1]
    if got[full] != value:
        raise InternalCheckError("omniscience witness total differs from LP value")
    for mask, hv in zip(masks, h):
        if got[mask] < hv:
            raise InternalCheckError(f"omniscience witness violates subset {mask:b}")

    if exact:
        witness = RateVector({u: rates[i] for i, u in enumerate(source.users)})
        return RcoResult(value, witness)
    witness = RateVector({u: float(rates[i]) for i, u in enumerate(source.users)})
    return RcoResult(float(value), witness)


def unconstrained_capacity(source: SourceSpec) -> Fraction | float:
    """Key rate with unlimited discussion: the partition-based MI.

    Computed as mmi(source) and asserted against H(Z_V) - rco(source), two
    independent routes that must agree (exactly for rational sources, to
    1e-9 for pmfs).
    """
    result = _mmi(source, cap=RCO_USER_CAP)
    via_rco = entropy(source, source.users) - rco(source).value
    tolerance = 0 if isinstance(source, HypergraphicalSource) else 1e-9
    if abs(via_rco - result.value) > tolerance:
        raise InternalCheckError(
            f"duality gap: H - rco = {via_rco} but partition search gives {result.value}"
        )
    return result.value
