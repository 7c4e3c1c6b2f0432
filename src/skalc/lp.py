"""Dense tableau simplex over exact integers.

Solves  min c.x  subject to  A x <= b,  x >= 0  with b >= 0, so the slack
basis is feasible from the start and no phase-1 is needed.  Entering and
leaving variables follow Bland's rule (lowest eligible index), which rules
out cycling.

The arithmetic is fraction-free (Edmonds 1967; Bareiss 1968).  Each
constraint row and its right-hand side are scaled by the lcm of their
denominators, the objective likewise, and the tableau is kept as Python
ints over one positive common denominator d; inputs are ints or
``Fraction``s, and callers lift any float themselves.  A pivot leaves the
pivot row as it is, replaces every other row (objective included) by
(row * piv - row[enter] * pivot_row) // d, which divides exactly, and sets
d = piv.  Positive row scaling changes neither the signs of the reduced
costs nor the order of the ratios, so the pivot sequence is the one Bland's
rule takes on the unscaled rational tableau.  ``Fraction`` appears only in
the returned solution; results are exact.  The optimal value is read off the
objective row's right-hand side, which holds -value * d * k_c for the
objective scale k_c.

The solution carries the constraint duals, read off the final reduced costs
of the slack columns.  For this minimization form each dual is <= 0 and
equals the sensitivity d(value)/d(b_i).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InternalCheckError, ValidationError

__all__ = ["LpSolution", "simplex_min"]

_MAX_PIVOTS = 200_000


@dataclass(frozen=True)
class LpSolution:
    value: Fraction
    x: tuple[Fraction, ...]
    duals: tuple[Fraction, ...]


def _over_lcm(values) -> tuple[list[int], int]:
    """Ints k * v for exact values v, with k the lcm of their denominators."""
    k = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (k // v.denominator) for v in values], k


def simplex_min(
    c: Sequence[int | Fraction],
    rows: Sequence[Sequence[int | Fraction]],
    rhs: Sequence[int | Fraction],
) -> LpSolution:
    """Minimize c.x over {A x <= b, x >= 0}; requires b >= 0."""
    n = len(c)
    m = len(rows)
    if len(rhs) != m or any(len(r) != n for r in rows):
        raise ValidationError("inconsistent LP dimensions")
    if any(v < 0 for v in rhs):
        raise ValidationError("simplex_min needs nonnegative right-hand sides")

    # Tableau columns: n structural, m slack, then the rhs.  Row i is scaled
    # by k_i and its slack by the same factor, so the slack column stays 1.
    last = n + m
    tab = []
    scales = []
    for i, row in enumerate(rows):
        ints, k = _over_lcm([*row, rhs[i]])
        line = ints[:n] + [0] * m + ints[n:]
        line[n + i] = 1
        tab.append(line)
        scales.append(k)
    obj, k_c = _over_lcm(c)
    obj += [0] * (m + 1)
    basis = list(range(n, n + m))
    d = 1

    for _ in range(_MAX_PIVOTS):
        enter = -1
        for j in range(last):
            if obj[j] < 0:
                enter = j
                break
        if enter < 0:
            break
        # Ratio test rhs_i / a_i by cross-multiplication; ties go to the
        # lowest basic variable index.
        leave = -1
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                if leave < 0:
                    leave, best_a, best_b = i, a, tab[i][last]
                    continue
                lhs = tab[i][last] * best_a
                rhs_ = best_b * a
                if lhs < rhs_ or (lhs == rhs_ and basis[i] < basis[leave]):
                    leave, best_a, best_b = i, a, tab[i][last]
        if leave < 0:
            raise InternalCheckError("LP is unbounded below")
        prow = tab[leave]
        piv = prow[enter]
        for i in range(m):
            if i == leave:
                continue
            line = tab[i]
            f = line[enter]
            if f:
                tab[i] = [(a * piv - f * p) // d for a, p in zip(line, prow)]
            elif piv != d:
                tab[i] = [a * piv // d for a in line]
        f = obj[enter]
        obj = [(a * piv - f * p) // d for a, p in zip(obj, prow)]
        d = piv
        basis[leave] = enter
    else:
        raise InternalCheckError("simplex pivot budget exhausted")

    # Every basic column holds d in its own row, so a basic value is rhs / d.
    x = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = Fraction(tab[i][last], d)
    # Reduced cost of slack i is -dual_i (slack has zero objective weight);
    # undo the row, slack and objective scaling.
    duals = tuple(Fraction(-obj[n + i] * k, d * k_c) for i, k in enumerate(scales))
    return LpSolution(Fraction(-obj[last], d * k_c), tuple(x), duals)
