"""Tiny GF(2) linear algebra on rows stored as int bitmasks.

Bit k of a row is the coefficient of variable k.  Everything the protocol
simulator needs reduces to rank and span queries, so a basis in echelon
form, each row stored under its top bit, is all we keep.
"""

from __future__ import annotations

from typing import Iterable

__all__ = ["Gf2Basis", "complement_units"]


class Gf2Basis:
    """Mutable basis in echelon form: each row is keyed by its top bit (its
    pivot), and no two rows share one.  Rows are not reduced against each
    other; a downward sweep over pivots still reduces any vector."""

    __slots__ = ("_rows",)

    def __init__(self, rows: Iterable[int] = ()):  # rows: int bitmasks
        self._rows: dict[int, int] = {}
        for r in rows:
            self.add(r)

    def reduce(self, v: int) -> int:
        rows = self._rows
        while v:
            p = v.bit_length() - 1
            r = rows.get(p)
            if r is None:
                return v
            v ^= r
        return 0

    def add(self, v: int) -> bool:
        """Insert v; False if it was already in the span."""
        v = self.reduce(v)
        if not v:
            return False
        self._rows[v.bit_length() - 1] = v
        return True

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> Iterable[int]:
        """The stored rows, which span the same space as every row added."""
        return self._rows.values()

    def copy(self) -> "Gf2Basis":
        b = Gf2Basis()
        b._rows = dict(self._rows)
        return b


def complement_units(basis: Gf2Basis, width: int) -> list[int]:
    """Unit vectors that extend the basis to the full space, low bit first.

    Adding units low bit first, unit k is independent of the basis and the
    units before it exactly when k is not a pivot, so these are the units
    at the non-pivot positions.
    """
    pivots = basis._rows
    return [1 << k for k in range(width) if k not in pivots]
