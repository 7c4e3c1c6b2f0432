"""Bounds and exact curves for the key rate under an entropy budget.

The central object is the compressed-secrecy trade-off: the best key rate
when the users may first reduce their joint observation to at most ``alpha``
bits of entropy.  For pairwise-shared-bit sources (PINs) the trade-off is
known exactly and both curves here are closed forms; ``sandwich`` takes its
lower curve from them.  For every other source we compute:

* a decremental lower bound: restrict each edge to a retained fraction,
  score the restricted source by its partition-based mutual information,
  and take the best value under the entropy budget.  Maximizing over
  fractional retentions is an exact rational LP (partition constraints,
  box constraints, one budget row) whose partition constraints enter as
  cutting planes: the most violated one at retention f is mmi's minimizer
  of the source restricted to f.  The full curve in ``alpha`` is
  reconstructed breakpoint-by-breakpoint from LP values and duals.  The
  witness at each breakpoint is the LP's retention vector there; it is a
  plain 0/1 edge subset exactly when the LP's vector is 0/1.  Subsets
  alone can undershoot (a two-edge star with weights 1 and 2 already
  needs a half-retained edge), which is why the LP is the authority.
* a floor from the common part all users share outright, and
* an upper bound transferred from any valid bound on the
  rate-constrained capacity via the budget-splitting inequality
  tC(alpha) <= C(alpha - tC(alpha)), in closed form per line of the
  concave bound, which is the minimum of the lines through its pieces.

``sandwich`` evaluates all of these on a grid and flags where the bounds
pinch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Callable, Mapping, Sequence

from .curves import CapacityCurve, upper_concave_envelope
from .errors import InternalCheckError, ResourceCapError, ValidationError
from .lp import simplex_min
from .mmi import _minimize_exact, iter_partitions, pin_strength
from .source_model import (
    EdgeRestriction,
    HypergraphicalSource,
    _hypergraph_table,
    entropy_table,
    gacs_korner,
    is_pin,
)

__all__ = [
    "PinCurves",
    "LowerBoundWitness",
    "LowerBoundResult",
    "pin_curves",
    "lower_bound_curve",
    "witness_at",
    "duality_upper_bound",
    "alpha_s_lower_bound",
    "SandwichRow",
    "SandwichResult",
    "sandwich",
    "EDGE_CAP",
    "LB_USER_CAP",
]

EDGE_CAP = 20
LB_USER_CAP = 8


@dataclass(frozen=True)
class PinCurves:
    """Exact trade-off curves for a pairwise source."""

    compressed: CapacityCurve
    constrained: CapacityCurve
    cap: Fraction
    alpha_s: Fraction
    r_s: Fraction


def _saturating(x_sat: Fraction, cap: Fraction) -> CapacityCurve:
    """The curve min(x * cap / x_sat, cap); the single point (0, cap) when it
    is at its cap from x = 0."""
    zero = Fraction(0)
    return CapacityCurve(((zero, cap),) if x_sat == 0 else ((zero, zero), (x_sat, cap)))


def pin_curves(source: HypergraphicalSource) -> PinCurves:
    """Closed-form curves min(alpha/(n-1), cap) and min(R/(n-2), cap).

    With two users r_s = 0: the constrained curve is flat at the cap.
    """
    if not is_pin(source):
        raise ValidationError("pin_curves needs a source with all edges on exactly two users")
    n = len(source.users)
    cap = pin_strength(source)
    alpha_s = (n - 1) * cap
    r_s = (n - 2) * cap
    return PinCurves(_saturating(alpha_s, cap), _saturating(r_s, cap), cap, alpha_s, r_s)


@dataclass(frozen=True)
class LowerBoundWitness:
    """Mixture of edge restrictions certifying one point of the lower bound.

    Each component is (mixture weight, restriction, value, entropy); weights
    sum to one and the mixed entropy stays within the budget at which the
    witness was requested.
    """

    components: tuple[tuple[Fraction, EdgeRestriction, Fraction, Fraction], ...]

    def mixed_value(self) -> Fraction:
        return sum((w * v for w, _, v, _ in self.components), Fraction(0))

    def mixed_entropy(self) -> Fraction:
        return sum((w * h for w, _, _, h in self.components), Fraction(0))


@dataclass(frozen=True)
class LowerBoundResult:
    curve: CapacityCurve
    witnesses: Mapping[tuple[Fraction, Fraction], LowerBoundWitness]


def _cut_row(source: HypergraphicalSource, blocks: tuple[int, ...]) -> list[int]:
    """LP row of the cut t <= I_P(f) for the partition given by its block masks.

    Scaled by D * (|P| - 1), with D the source's weight denominator, the cut
    reads D * (|P| - 1) * t - sum_e int_w_e * (blocks e touches - 1) * f_e <= 0.
    """
    return [source.denominator * (len(blocks) - 1)] + [
        -w * (sum(1 for bm in blocks if bm & emask) - 1)
        for emask, w in zip(source.edge_masks(), source.int_weights)
    ]


def _best_restriction(
    source: HypergraphicalSource,
    partitions: Sequence[tuple[int, ...]],
    alpha: Fraction,
    seed: tuple[int, ...],
):
    """Maximize min_P I_P(f) s.t. H(f) <= alpha, 0 <= f <= 1.

    Cutting-plane loop: solve with a working set of partition constraints,
    seeded with ``seed``, then add the most violated partition, mmi's first
    minimizer over ``partitions`` of the source restricted to the LP's f,
    until none is violated.  Returns (value, f, slope) where slope is a
    subgradient of the value in alpha, taken from the budget-row dual.
    """
    m = len(source.weights)
    cuts = [_cut_row(source, seed)]
    fixed = [[0, *source.weights]]
    fixed += [[0] * (1 + e) + [1] + [0] * (m - 1 - e) for e in range(m)]
    for _ in range(len(partitions) + 2):
        budget_row = len(cuts)
        rhs = [0] * budget_row + [alpha] + [1] * m
        sol = simplex_min([-1] + [0] * m, cuts + fixed, rhs)
        t_star = sol.x[0]
        f_star = sol.x[1:]
        # With f* = g / q, the restricted source has int weights
        # int_w_e * g_e over D * q.
        q = math.lcm(*(fe.denominator for fe in f_star))
        g = [fe.numerator * (q // fe.denominator) for fe in f_star]
        h = _hypergraph_table(len(source.users), source.edge_masks(),
                              list(map(mul, source.int_weights, g)))
        value, minimizers = _minimize_exact(h, partitions, source.denominator * q)
        if value < t_star:
            cuts.append(_cut_row(source, minimizers[0]))
            continue
        slope = -sol.duals[budget_row]
        return t_star, tuple(f_star), slope
    raise InternalCheckError("cutting-plane loop failed to converge")


def _reconstruct_curve(evaluate: Callable, a_lo: Fraction, a_hi: Fraction):
    """Recover all breakpoints of the concave LP value function exactly.

    Each evaluation yields the value and a supporting line (via the dual
    slope).  Where the supporting lines at the interval ends disagree, probe
    their intersection: either it lies on both lines (a breakpoint) or it
    splits the interval with a fresh supporting line.
    """
    store: dict[Fraction, tuple] = {}

    def ev(a: Fraction):
        if a not in store:
            store[a] = evaluate(a)
        return store[a]

    def line(a0, v0, s0, a):
        return v0 + s0 * (a - a0)

    ev(a_lo)
    if a_hi <= a_lo:
        return store
    ev(a_hi)
    # Depth-first, left part first.  A stack, not a recursive closure: the
    # closure's reference to itself would keep the store alive until a full
    # garbage collection.
    stack = [(a_lo, a_hi, 0)]
    while stack:
        a1, a2, depth = stack.pop()
        if depth > 200:
            raise InternalCheckError("curve reconstruction recursion too deep")
        v1, _, s1 = ev(a1)
        v2, _, s2 = ev(a2)
        if line(a1, v1, s1, a2) == v2 or line(a2, v2, s2, a1) == v1:
            continue
        if s1 == s2:
            raise InternalCheckError("parallel supporting lines with a gap")
        a_star = (v1 - v2 + s2 * a2 - s1 * a1) / (s2 - s1)
        if not a1 < a_star < a2:
            raise InternalCheckError("supporting-line intersection left the bracket")
        v_star, _, _ = ev(a_star)
        if v_star == line(a1, v1, s1, a_star):
            continue
        stack.append((a_star, a2, depth + 1))
        stack.append((a1, a_star, depth + 1))
    return store


def _restriction_from_fractions(source: HypergraphicalSource, f: Sequence[Fraction]) -> EdgeRestriction:
    return EdgeRestriction({eid: Fraction(fe) for eid, fe in zip(source.edge_ids, f)})


def lower_bound_curve(source: HypergraphicalSource) -> LowerBoundResult:
    """Best decremental key rate as a function of the entropy budget.

    Returns the exact concave piecewise-linear curve together with a witness
    restriction per breakpoint: the fractional retention the LP found there.
    """
    if not isinstance(source, HypergraphicalSource):
        raise ValidationError("lower_bound_curve needs a hypergraphical source")
    n = len(source.users)
    if n > LB_USER_CAP:
        raise ResourceCapError(f"{n} users exceed the lower-bound cap {LB_USER_CAP}")
    if len(source.weights) > EDGE_CAP:
        raise ResourceCapError(f"{len(source.weights)} edges exceed cap {EDGE_CAP}")
    zero = Fraction(0)
    if not source.weights:
        curve = CapacityCurve(((zero, zero),))
        witness = LowerBoundWitness(((Fraction(1), EdgeRestriction({}), zero, zero),))
        return LowerBoundResult(curve, {(zero, zero): witness})

    # One enumeration per curve; every separation scores this list.
    partitions = [blocks for blocks in iter_partitions(n) if len(blocks) > 1]
    seed = _minimize_exact(entropy_table(source), partitions, source.denominator)[1][0]
    store = _reconstruct_curve(lambda alpha: _best_restriction(source, partitions, alpha, seed),
                               zero, source.total_entropy())
    curve = upper_concave_envelope([(a, v) for a, (v, _, _) in store.items()])

    witnesses = {}
    for x, y in curve.points:
        f = store[x][1]
        restriction = _restriction_from_fractions(source, f)
        entropy_used = sum((w * fe for w, fe in zip(source.weights, f)), zero)
        witnesses[(x, y)] = LowerBoundWitness(((Fraction(1), restriction, y, entropy_used),))
    return LowerBoundResult(curve, witnesses)


def witness_at(result: LowerBoundResult, alpha: Fraction) -> LowerBoundWitness:
    """Witness for the curve value at an arbitrary budget: at most two
    breakpoint restrictions mixed so the average entropy meets the budget."""
    alpha = Fraction(alpha)
    if alpha < 0:
        raise ValidationError("budget must be nonnegative")
    pts = result.curve.points
    if alpha >= pts[-1][0]:
        return result.witnesses[pts[-1]]
    for pt in pts:
        if pt[0] == alpha:
            return result.witnesses[pt]
    idx = max(i for i, p in enumerate(pts) if p[0] < alpha)
    left, right = pts[idx], pts[idx + 1]
    lam = (right[0] - alpha) / (right[0] - left[0])
    (wl,) = result.witnesses[left].components
    (wr,) = result.witnesses[right].components
    return LowerBoundWitness(
        (
            (lam, wl[1], wl[2], wl[3]),
            (1 - lam, wr[1], wr[2], wr[3]),
        )
    )


def _lines(curve: CapacityCurve):
    """(x, y, slope) of each piece of the curve, the flat tail last; on
    x >= 0 the concave curve is the minimum of these lines.  A float curve
    may fall within its tolerance; such a piece counts as flat."""
    pts = curve.points
    pieces = [(x1, y1, max((y2 - y1) / (x2 - x1), 0))
              for (x1, y1), (x2, y2) in zip(pts, pts[1:])]
    return pieces + [(*pts[-1], 0)]


def duality_upper_bound(cs_upper: CapacityCurve, cap, alpha):
    """Largest g in [0, min(alpha, cap)] with g <= cs_upper(alpha - g).

    Splitting the entropy budget between the key and the discussion turns
    any valid bound on the rate-constrained capacity into a budget-domain
    bound.  With cs_upper the minimum of its lines y + s (x - x0), the
    condition is g <= (y + s (alpha - x0)) / (1 + s) for every line, so
    below min(alpha, cap) the bound is the least of these.
    """
    if alpha < 0:
        raise ValidationError("budget must be nonnegative")
    hi = min(alpha, cap)
    if hi <= 0:
        return hi * 0
    if hi <= cs_upper.value_at(alpha - hi):
        return hi
    return min((y + s * (alpha - x)) / (1 + s) for x, y, s in _lines(cs_upper))


def alpha_s_lower_bound(cs_upper: CapacityCurve, cap):
    """Bound r_s + cap on the budget needed to saturate, where r_s is the
    smallest rate at which the supplied curve reaches the cap: its first x
    when it starts there, else the largest x at which one of its rising
    lines does.  None when the curve never gets there."""
    if cs_upper.cap() < cap:
        return None
    x0, y0 = cs_upper.points[0]
    if y0 >= cap:
        return x0 + cap
    return max(x + (cap - y) / s for x, y, s in _lines(cs_upper) if s > 0) + cap


@dataclass(frozen=True)
class SandwichRow:
    alpha: Fraction
    lower: Fraction | float
    upper: Fraction | float
    tight: bool


@dataclass(frozen=True)
class SandwichResult:
    rows: tuple[SandwichRow, ...]
    cap: Fraction
    gk: Fraction
    inferred_alpha_s: Fraction


def sandwich(
    source: HypergraphicalSource,
    alphas: Sequence[Fraction],
    cs_upper: CapacityCurve | None = None,
) -> SandwichResult:
    """Evaluate the best lower and upper bounds on the compressed capacity.

    lower = max(decremental curve, common-part floor); upper = min(budget,
    cap, transferred discussion-rate bound).  On a pairwise source the
    decremental curve is the exact closed form ``pin_curves(source).compressed``,
    so ``LB_USER_CAP`` and ``EDGE_CAP`` bound only the cutting-plane LP of the
    other sources.  Rows are flagged
    tight where they coincide (exactly in rational arithmetic, to 1e-9 when
    a float curve is supplied).
    """
    if not alphas:
        raise ValidationError("the budget grid must not be empty")
    alphas = [Fraction(alpha) for alpha in alphas]
    if min(alphas) < 0:
        raise ValidationError("grid budgets must be nonnegative")
    if is_pin(source):
        curve = pin_curves(source).compressed
    else:
        curve = lower_bound_curve(source).curve
    # I_P(f) is nondecreasing in the retention f, so the curve saturates at
    # mmi once the budget covers H(V).
    cap = curve.cap()
    jgk = gacs_korner(source)
    rows = []
    for alpha in alphas:
        lower = max(curve.value_at(alpha), min(alpha, jgk))
        upper = (min(alpha, cap) if cs_upper is None
                 else duality_upper_bound(cs_upper, cap, alpha))
        # lower is exact, so only a float cs_upper curve needs a tolerance.
        tol = 0 if isinstance(upper, Fraction) else 1e-9
        gap = upper - lower
        if gap < -tol:
            if cs_upper is not None:
                # The supplied curve is the only input that can put the upper
                # bound below a lower bound the library proved.
                raise ValidationError(
                    f"the cs_upper curve is not an upper bound: at alpha={alpha} it "
                    f"bounds the key rate by {upper}, below the lower bound {lower}")
            raise InternalCheckError(f"bounds crossed at alpha={alpha}: {lower} > {upper}")
        rows.append(SandwichRow(alpha, lower, upper, gap <= tol))
    return SandwichResult(tuple(rows), cap, jgk, curve.saturation_x())
