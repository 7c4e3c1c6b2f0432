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

from .mmi import _principal_partition, mmi as _mmi
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
    # H(Z_B | Z_{V \ B}) = H(V) - H(V \ B), from one table of all user sets,
    # in the table's units: ints over D for hypergraphs, each pmf float
    # lifted once.  The LP and its certificate run in these units.
    table = entropy_table(source)
    h = [Fraction(table[full] - table[full ^ mask]) for mask in masks]

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

    def bits(v):  # out of the table's units
        return Fraction(v, source.denominator) if exact else float(v)

    witness = RateVector({u: bits(r) for u, r in zip(source.users, rates)})
    return RcoResult(bits(value), witness)


def unconstrained_capacity(source: SourceSpec) -> Fraction | float:
    """Key rate with unlimited discussion: the partition-based MI.

    Asserted against H(Z_V) - rco(source), two independent routes that must
    agree (exactly for rational sources, to 1e-9 for pmfs).  A hypergraph's
    mmi is the Newton value of its principal partition, so no coarsening of
    P* is scored; a pmf's comes from the partition search.
    """
    via_rco = entropy(source, source.users) - rco(source).value
    if isinstance(source, HypergraphicalSource):
        p, q, _ = _principal_partition(source)
        value, tolerance = Fraction(p, q * source.denominator), 0
    else:
        value, tolerance = _mmi(source, cap=RCO_USER_CAP).value, 1e-9
    if abs(via_rco - value) > tolerance:
        raise InternalCheckError(f"duality gap: H - rco = {via_rco} but mmi is {value}")
    return value
