"""Multivariate mutual information: the minimum over partitions.

For a partition P of the user set into at least two blocks,

    I_P = (sum of block entropies - joint entropy) / (number of blocks - 1)

and the multivariate mutual information is the minimum of I_P over all such
partitions.  With two users this is the usual Shannon mutual information.
The minimizers form a lattice whose bottom element, the finest optimal
partition P*, refines every other minimizer.

Hypergraphical sources take a polynomial route, the principal partition
(Narayanan 1991; Chan et al., "Info-clustering", 2015/2016).  Newton
(Dinkelbach) steps on the ratio each solve a Dilworth truncation with one
integer min-cut per user (Cunningham 1985, "Optimal attack and
reinforcement of a network", extended to hyperedges with Lawler gadget
nodes), and the inclusion-smallest cuts give P*.  The ``minimizers`` that
``mmi`` counts are then found among the Bell(|P*|) coarsenings of P* alone.
Scores are pairs of Python ints over the source's weight denominator,
compared by cross-multiplication.

Pmf sources score every partition once, with block entropies from
``source_model.entropy_table``, and there the finest minimizer is checked
to refine every other.  Both routes keep the user cap (default 8, hard
maximum 12).

``pin_strength`` serves pairwise sources, where every edge joins two users
and mmi is the graph strength min_P c(dP) / (|P| - 1): the weight of the
edges crossing P over the block count less one.  It is the same Newton
value with no user cap.  By Nash-Williams and Tutte, the n-fold graph packs
floor(n * strength) edge-disjoint spanning trees.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import InternalCheckError, ResourceCapError, ValidationError
from .source_model import (
    HypergraphicalSource,
    SourceSpec,
    _hypergraph_table,
    entropy,
    entropy_table,
    is_pin,
)

__all__ = [
    "Partition",
    "MmiResult",
    "iter_partitions",
    "partition_info",
    "mmi",
    "pin_strength",
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
    if n >= 1:
        yield from _place([], 0, n)


def _place(blocks: list[int], i: int, n: int) -> Iterator[tuple[int, ...]]:
    # Not a closure: one that calls itself is a reference cycle.
    if i == n:
        yield tuple(blocks)
        return
    bit = 1 << i
    for j in range(len(blocks)):
        blocks[j] |= bit
        yield from _place(blocks, i + 1, n)
        blocks[j] ^= bit
    blocks.append(bit)
    yield from _place(blocks, i + 1, n)
    blocks.pop()


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


def partition_info(source: SourceSpec, partition: Sequence[Sequence[str]]) -> Fraction | float:
    """The normalized total correlation I_P of one partition."""
    masks = _partition_masks(source, partition)
    acc = sum(entropy(source, block) for block in partition)
    return (acc - entropy(source, source.users)) / (len(masks) - 1)


@dataclass(frozen=True)
class MmiResult:
    value: Fraction | float
    finest: Partition
    minimizers: tuple[Partition, ...]


def mmi(source: SourceSpec, cap: int = DEFAULT_USER_CAP) -> MmiResult:
    """Minimize I_P over all partitions with at least two blocks.

    Exact rational arithmetic for hypergraphical sources; floats with a 1e-9
    tie tolerance for pmfs.  ``minimizers`` come in the restricted-growth
    order of ``iter_partitions``.  Raises ResourceCapError when the user
    count exceeds ``cap`` (hard maximum 12: the pmf enumeration is
    Bell-number sized), and ValidationError for a cap outside 2..12.
    """
    if cap > HARD_USER_CAP:
        raise ValidationError(f"cap {cap} exceeds hard maximum {HARD_USER_CAP}")
    if cap < 2:
        raise ValidationError(f"cap {cap} admits no source: every source has two or more users")
    n = len(source.users)
    if n > cap:
        raise ResourceCapError(f"{n} users exceed partition enumeration cap {cap}")
    if isinstance(source, HypergraphicalSource):
        p, q, blocks = _principal_partition(source)
        value = Fraction(p, q * source.denominator)
        found = _coarsenings(source, blocks, p, q)
    else:
        value, found = _minimize_float(entropy_table(source), n)
        blocks = max(found, key=len)
        for other in found:
            # Some block of the finest lies in no block of the other.
            if any(all(b & ~c for c in other) for b in blocks):
                raise InternalCheckError(
                    "finest minimizer does not refine a co-minimizer; "
                    f"finest={_canonical_partition(source, blocks)} "
                    f"other={_canonical_partition(source, other)}"
                )
    minimizers = tuple(_canonical_partition(source, m) for m in found)
    return MmiResult(value, _canonical_partition(source, blocks), minimizers)


def _coarsenings(
    source: HypergraphicalSource, blocks: list[int], p: int, q: int
) -> list[tuple[int, ...]]:
    """The coarsenings of P* (block masks ``blocks``) whose I_P is the Newton
    value p / (q * D), as user masks in the order of ``iter_partitions(n)``.

    Every mmi minimizer coarsens P*, so Bell(|P*|) partitions are scored.
    Block entropies come from the entropy table of the source with each
    block of P* contracted to one user.  I_{P*} must equal the Newton value
    and no coarsening may score below it; either failure is a fault of the
    Newton steps.
    """
    # With P*'s blocks numbered by their lowest user, the restricted-growth
    # labels of the blocks order the coarsenings as the labels of the users do.
    blocks = sorted(blocks, key=lambda b: b & -b)
    k = len(blocks)
    contracted = [sum(1 << j for j, b in enumerate(blocks) if b & m) for m in source.edge_masks()]
    h = _hypergraph_table(k, contracted, source.int_weights)
    if (sum(h[1 << j] for j in range(k)) - h[-1]) * q != p * (k - 1):
        raise InternalCheckError(
            f"I_P of the finest minimizer differs from the Newton value {p}/{q}")
    best, found = _minimize_exact(h, iter_partitions(k), 1)
    if best < Fraction(p, q):
        raise InternalCheckError(f"a coarsening of the finest minimizer scores below {p}/{q}")
    return [tuple(sum(b for j, b in enumerate(blocks) if c >> j & 1) for c in coarse)
            for coarse in found]


def _minimize_exact(
    h: list[int], partitions: Iterable[tuple[int, ...]], denom: int
) -> tuple[Fraction, list[tuple[int, ...]]]:
    """Minimum of I_P over ``partitions`` and its minimizers in their order.

    With every entropy an int over ``denom``, I_P is the pair (sum of block
    entropies - H(V), blocks - 1), and pairs compare by cross-multiplication.
    Single-block partitions are skipped; ``capacity`` reuses one list.
    """
    total = h[-1]
    best_s, best_k = 0, 0
    found: list[tuple[int, ...]] = []
    for blocks in partitions:
        k = len(blocks) - 1
        if not k:
            continue
        s = sum(map(h.__getitem__, blocks)) - total
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


def pin_strength(source: HypergraphicalSource) -> Fraction:
    """Graph strength min_P c(dP) / (|P| - 1) of a pairwise source.

    Equals ``mmi(source).value`` for a pairwise source, and is 0 exactly when
    the graph is disconnected.  It is the Newton value of the principal
    partition, with no user cap and no partition enumeration.
    """
    if not is_pin(source):
        raise ValidationError("pin_strength needs a source with all edges on exactly two users")
    p, q, _ = _principal_partition(source)
    return Fraction(p, q * source.denominator)


def _principal_partition(source: HypergraphicalSource) -> tuple[int, int, list[int]]:
    """(p, q, blocks): mmi is p / (q * D) and ``blocks`` are the user masks of
    the finest minimizer P*.

    Newton (Dinkelbach) steps on lambda = p / q start from the all-singletons
    ratio.  Each step takes the finest partition P minimizing
    q * (sum of h(B) over P - h(V)) - p * (|P| - 1); if its ratio beats
    lambda, that ratio is the next lambda.  At the optimum the single block
    and the mmi minimizers tie at 0, and the finest of them is P*.
    """
    n = len(source.users)
    edges = [(m, [i for i in range(n) if m >> i & 1], w)
             for m, w in zip(source.edge_masks(), source.int_weights)]
    p, q = sum(w * (len(users) - 1) for _, users, w in edges), n - 1
    while True:
        blocks = _finest_minimizer(n, edges, p, q)
        if len(blocks) < 2:
            raise InternalCheckError(f"Newton step at {p}/{q} found no split of the users")
        p2 = sum(w * (sum(1 for b in blocks if b & m) - 1) for m, _, w in edges)
        q2 = len(blocks) - 1
        if p2 * q >= p * q2:
            return p, q, blocks
        p, q = p2, q2


def _finest_minimizer(n: int, edges: list[tuple[int, list[int], int]], p: int, q: int) -> list[int]:
    """Block masks of the finest partition minimizing the sum over its blocks
    of g(B) = q * h(B) - p, with h(B) the weight of the edges touching B.

    This is the Dilworth truncation of the submodular g.  Users join in index
    order.  User v merges with the set X of current blocks that minimizes
    g({v} + X) - sum of g(B) over X.  Up to a constant that is, for each B
    in X, the modular term p - q * h(B), plus q * w for each edge e that
    misses v and touches a block of X.  One s-t min-cut with source v and a
    node per block solves it:
    - an edge touching one block adds q * w to that block's sink arc;
    - an edge touching blocks A < B adds q * w to B's sink arc and an arc
      A -> B, since [A or B in X] = [B in X] + [A in X, B not];
    - the edges touching the same three or more blocks share one Lawler
      gadget node: an arc from each of those blocks into it, and one out to
      the sink, each of their total q * w.
    The inclusion-smallest source side merges the fewest blocks, so the
    final partition is the finest minimizer.
    """
    blocks: list[int] = []
    label = [0] * n  # node of each placed user's block
    for v in range(n):
        k = len(blocks)
        h = [0] * (k + 1)
        # q * weight of the edges that miss v, by the blocks they touch
        touching: dict[tuple[int, ...], int] = {}
        for emask, users, w in edges:
            touched = tuple(sorted({label[u] for u in users if u < v}))
            for j in touched:
                h[j] += w
            if touched and not emask >> v & 1:
                touching[touched] = touching.get(touched, 0) + q * w
        gadget = k + 1
        sink = gadget + sum(len(touched) > 2 for touched in touching)
        cap = [[0] * (sink + 1) for _ in range(sink + 1)]
        for j in range(1, k + 1):
            modular = p - q * h[j]
            if modular > 0:
                cap[j][sink] = modular
            else:
                cap[0][j] = -modular
        for touched, c in touching.items():
            if len(touched) > 2:
                for j in touched:
                    cap[j][gadget] = c
                cap[gadget][sink] = c
                gadget += 1
            else:
                cap[touched[-1]][sink] += c
                if len(touched) == 2:
                    cap[touched[0]][touched[1]] = c
        side = _source_side(cap)
        merged = 1 << v
        rest = []
        for j, block in enumerate(blocks, start=1):
            if side[j]:
                merged |= block
            else:
                rest.append(block)
        blocks = rest + [merged]
        for j, block in enumerate(blocks, start=1):
            while block:
                low = block & -block
                label[low.bit_length() - 1] = j
                block ^= low
    return blocks


def _source_side(cap: list[list[int]]) -> list[bool]:
    """Nodes on the source side of the minimum cut from node 0 to the last
    node that is smallest by inclusion (Edmonds-Karp on a dense matrix)."""
    size = len(cap)
    sink = size - 1
    while True:
        parent = [-1] * size
        parent[0] = 0
        queue = deque([0])
        while queue and parent[sink] < 0:
            x = queue.popleft()
            for y, c in enumerate(cap[x]):
                if c > 0 and parent[y] < 0:
                    parent[y] = x
                    queue.append(y)
        if parent[sink] < 0:
            return [i >= 0 for i in parent]
        push = None
        y = sink
        while y:
            x = parent[y]
            push = cap[x][y] if push is None else min(push, cap[x][y])
            y = x
        y = sink
        while y:
            x = parent[y]
            cap[x][y] -= push
            cap[y][x] += push
            y = x
