"""Multivariate mutual information by partition search.

For a partition P of the user set into at least two blocks,

    I_P = (sum of block entropies - joint entropy) / (number of blocks - 1)

and the multivariate mutual information is the minimum of I_P over all such
partitions.  With two users this is the usual Shannon mutual information.
The minimizers form a lattice whose bottom element, the finest optimal
partition, refines every other minimizer; that structure is asserted here.

``mmi`` scores every partition once.  Block entropies come from
``source_model.entropy_table``, one entry per user set; for hypergraphical
sources its entries are ints over the source's weight denominator, so each
score is a pair of Python ints compared by cross-multiplication.  The
enumeration is still Bell-number sized, so the user count is capped
(default 8, hard maximum 12).

``pin_strength`` serves pairwise sources, where every edge joins two users
and mmi is the graph strength min_P c(dP) / (|P| - 1): the weight of the
edges crossing P over the block count less one.  It runs in polynomial time
with no user cap: Newton (Dinkelbach) steps on the ratio, each an attack
problem solved as a Dilworth truncation with one integer min-cut per user
(Cunningham 1985, "Optimal attack and reinforcement of a network").  By
Nash-Williams and Tutte, the n-fold graph packs floor(n * strength)
edge-disjoint spanning trees.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import InternalCheckError, ResourceCapError, ValidationError
from .source_model import HypergraphicalSource, SourceSpec, entropy, entropy_table, is_pin

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
    h = entropy_table(source)
    if isinstance(source, HypergraphicalSource):
        value, minimizer_masks = _minimize_exact(h, iter_partitions(n), source.denominator)
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
    the graph is disconnected.  Newton steps on lambda = p / q start from the
    all-singletons ratio c(E) / (n - 1).  Each step finds a partition that
    minimizes c(dP) - lambda * (|P| - 1); if that beats lambda, its ratio is
    the next lambda.  The source's integer weights over its denominator
    make every step exact integer arithmetic.
    """
    if not isinstance(source, HypergraphicalSource) or not is_pin(source):
        raise ValidationError("pin_strength needs a source with all edges on exactly two users")
    n = len(source.users)
    adj = [[0] * n for _ in range(n)]
    for (u, v), c in zip(source.incidence, source.int_weights):
        adj[u][v] += c
        adj[v][u] += c
    p, q = sum(map(sum, adj)) // 2, n - 1
    while p:
        blocks = _attack(adj, p, q)
        if len(blocks) < 2:
            break
        p2, q2 = _crossing_weight(adj, blocks), len(blocks) - 1
        if p2 * q >= p * q2:
            break
        p, q = p2, q2
    return Fraction(p, q * source.denominator)


def _crossing_weight(adj: list[list[int]], blocks: list[list[int]]) -> int:
    label = [0] * len(adj)
    for j, block in enumerate(blocks):
        for u in block:
            label[u] = j
    return sum(c for u, row in enumerate(adj) for v, c in enumerate(row[:u]) if label[u] != label[v])


def _attack(adj: list[list[int]], p: int, q: int) -> list[list[int]]:
    """A partition minimizing q * c(dP) - p * (|P| - 1).

    That is half the sum over blocks of f(B) = q * c(dB) - 2p, plus p, so
    this is the Dilworth truncation of the submodular f.  Users join in index
    order.  User v merges with the set X of current blocks that minimizes
    f({v} + X) - sum of f(B) over X, which is q * c(d({v} + X)) plus, for
    each B in X, the modular term 2p - q * c(dB): one s-t min-cut with source
    v, a node per block, and the users not yet placed merged into the sink.
    """
    n = len(adj)
    blocks: list[list[int]] = []
    for v in range(n):
        k = len(blocks)
        sink = k + 1
        # per block, the weight to each user
        bw = [[sum(col) for col in zip(*(adj[u] for u in block))] for block in blocks]
        cap = [[0] * (k + 2) for _ in range(k + 2)]
        for j, (block, row) in enumerate(zip(blocks, bw), start=1):
            cap[0][j] = q * row[v]
            for i, other in enumerate(blocks, start=1):
                if i != j:
                    cap[j][i] = q * sum(row[u] for u in other)
            cap[j][sink] = q * sum(row[v + 1:])
            modular = 2 * p - q * (sum(row) - sum(row[u] for u in block))
            if modular > 0:
                cap[j][sink] += modular
            else:
                cap[0][j] -= modular
        side = _source_side(cap)
        merged = [v]
        rest = []
        for j, block in enumerate(blocks, start=1):
            if side[j]:
                merged.extend(block)
            else:
                rest.append(block)
        blocks = rest + [merged]
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
