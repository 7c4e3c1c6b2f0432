"""Multivariate mutual information by partition search.

For a partition P of the user set into at least two blocks,

    I_P = (sum of block entropies - joint entropy) / (number of blocks - 1)

and the multivariate mutual information is the minimum of I_P over all such
partitions.  With two users this is the usual Shannon mutual information.
The minimizers form a lattice whose bottom element, the finest optimal
partition, refines every other minimizer; that structure is asserted here.

``mmi`` scores every partition once.  Block entropies come from a table with
one entry per nonempty user set; for hypergraphical sources the table is put
over its common denominator, so each score is a pair of Python ints compared
by cross-multiplication.  The enumeration is still Bell-number sized, so the
user count is capped (default 8, hard maximum 12).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import InternalCheckError, ResourceCapError, ValidationError
from .source_model import HypergraphicalSource, JointPMF, SourceSpec, entropy

__all__ = [
    "Partition",
    "MmiResult",
    "iter_partitions",
    "partition_info",
    "mmi",
    "DEFAULT_USER_CAP",
    "HARD_USER_CAP",
]

DEFAULT_USER_CAP = 8
HARD_USER_CAP = 12

# A partition is a tuple of blocks, each block a frozenset of user ids.
Partition = tuple[frozenset[str], ...]

FLOAT_TIE_TOL = 1e-9


def iter_partitions(n: int) -> Iterator[tuple[int, ...]]:
    """Yield every set partition of range(n) once, as a tuple of block bitmasks.

    Recursive placement: user i joins each existing block in turn, then opens
    a new block.  Block j holds the users whose restricted-growth label is j,
    and partitions come in lexicographic order of those labels, starting with
    the single block.
    """
    blocks: list[int] = []

    def place(i: int) -> Iterator[tuple[int, ...]]:
        if i == n:
            yield tuple(blocks)
            return
        bit = 1 << i
        for j in range(len(blocks)):
            blocks[j] |= bit
            yield from place(i + 1)
            blocks[j] ^= bit
        blocks.append(bit)
        yield from place(i + 1)
        blocks.pop()

    if n >= 1:
        yield from place(0)


def _canonical_partition(source: SourceSpec, masks: Sequence[int]) -> Partition:
    blocks = []
    for m in masks:
        blocks.append(frozenset(source.users[i] for i in range(len(source.users)) if m >> i & 1))
    blocks.sort(key=lambda b: sorted(b))
    return tuple(blocks)


def _partition_masks(source: SourceSpec, partition: Sequence[Sequence[str]]) -> list[int]:
    n = len(source.users)
    masks = []
    seen = 0
    for block in partition:
        block = list(block)
        if not block:
            raise ValidationError("partition blocks must be non-empty")
        m = 0
        for u in block:
            m |= 1 << source.user_index(u)
        if m & seen:
            raise ValidationError("partition blocks must be disjoint")
        seen |= m
        masks.append(m)
    if seen != (1 << n) - 1:
        raise ValidationError("partition must cover all users")
    if len(masks) < 2:
        raise ValidationError("partition needs at least two blocks")
    return masks


def _block_entropy(source: SourceSpec, mask: int):
    if isinstance(source, HypergraphicalSource):
        return source.entropy_of_mask(mask)
    users = [u for i, u in enumerate(source.users) if mask >> i & 1]
    return entropy(source, users)


def partition_info(source: SourceSpec, partition: Sequence[Sequence[str]]) -> Fraction | float:
    """The normalized total correlation I_P of one partition."""
    masks = _partition_masks(source, partition)
    total = _block_entropy(source, (1 << len(source.users)) - 1)
    acc = sum(_block_entropy(source, m) for m in masks)
    return (acc - total) / (len(masks) - 1)


def _refines(fine: Partition, coarse: Partition) -> bool:
    return all(any(b <= c for c in coarse) for b in fine)


@dataclass(frozen=True)
class MmiResult:
    value: Fraction | float
    finest: Partition
    minimizers: tuple[Partition, ...]


def mmi(source: SourceSpec, cap: int = DEFAULT_USER_CAP) -> MmiResult:
    """Minimize I_P over all partitions with at least two blocks.

    Exact rational arithmetic for hypergraphical sources; floats with a 1e-9
    tie tolerance for pmfs.  Raises ResourceCapError when the user count
    exceeds ``cap`` (hard maximum 12: the enumeration is Bell-number sized).
    """
    if cap > HARD_USER_CAP:
        raise ValidationError(f"cap {cap} exceeds hard maximum {HARD_USER_CAP}")
    n = len(source.users)
    if n > cap:
        raise ResourceCapError(f"{n} users exceed partition enumeration cap {cap}")
    full = (1 << n) - 1
    h = [None] + [_block_entropy(source, m) for m in range(1, full + 1)]
    if isinstance(source, HypergraphicalSource):
        value, minimizer_masks = _minimize_exact(h, n)
    else:
        value, minimizer_masks = _minimize_float(h, n)
    minimizers = tuple(_canonical_partition(source, m) for m in minimizer_masks)
    finest = max(minimizers, key=lambda p: (len(p), [sorted(b) for b in p]))
    for other in minimizers:
        if not _refines(finest, other):
            raise InternalCheckError(
                "finest minimizer does not refine a co-minimizer; "
                f"finest={finest} other={other}"
            )
    return MmiResult(value, finest, minimizers)


def _minimize_exact(h: list, n: int) -> tuple[Fraction, list[tuple[int, ...]]]:
    """Minimum of I_P and its minimizers in enumeration order, in integers.

    With every entropy scaled to an int over the common denominator, I_P is
    the pair (sum of block entropies - H(V), blocks - 1), and pairs compare
    by cross-multiplication.
    """
    denom = math.lcm(*(x.denominator for x in h[1:]))
    hi = [0] + [x.numerator * (denom // x.denominator) for x in h[1:]]
    total = hi[-1]
    best_s, best_k = 0, 0
    found: list[tuple[int, ...]] = []
    for blocks in iter_partitions(n):
        k = len(blocks) - 1
        if not k:
            continue
        s = sum(map(hi.__getitem__, blocks)) - total
        if not best_k or s * best_k < best_s * k:
            best_s, best_k = s, k
            found = [blocks]
        elif s * best_k == best_s * k:
            found.append(blocks)
    return Fraction(best_s, best_k * denom), found


def _minimize_float(h: list, n: int) -> tuple[float, list[tuple[int, ...]]]:
    """Minimum of I_P and every partition within FLOAT_TIE_TOL of it.

    A partition within the tolerance of the final minimum was within it of
    the running minimum when it was scored, so keeping the candidates within
    the tolerance of the running minimum, and dropping those that fall out
    of it when the minimum moves, leaves exactly that set.
    """
    total = h[-1]
    best = None
    found: list[tuple[float, tuple[int, ...]]] = []
    for blocks in iter_partitions(n):
        if len(blocks) < 2:
            continue
        value = (sum(map(h.__getitem__, blocks)) - total) / (len(blocks) - 1)
        if best is None or value < best:
            best = value
            found = [c for c in found if c[0] - best <= FLOAT_TIE_TOL]
            found.append((value, blocks))
        elif value - best <= FLOAT_TIE_TOL:
            found.append((value, blocks))
    assert best is not None
    return best, [blocks for _, blocks in found]
