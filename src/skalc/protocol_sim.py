"""Finite-blocklength linear secrecy schemes on integer-weight sources.

A blocklength-n instance of an integer-weight hypergraphical source is a
vector of i.i.d. uniform bits, one per (edge, weight unit, copy).  Users
observe the bits of their incident edges.  A scheme is a pair of GF(2)
matrices over those bits: public transcript rows, each spoken by a user who
observes the row's support, and key rows.  Verification is exact linear
algebra: every user must reach the key rows from own bits plus transcript,
the key must be full-rank (uniform), and the transcript must be independent
of the key (ranks add).

Two constructions are provided: spanning-tree packing for pairwise sources
(one key bit per packed tree) and random binning that first drives all users
to omniscience at rates from the discussion-rate optimizer, then reads the
key off as the untouched quotient of the source space.  Each builder
verifies its scheme once and keeps the result as ``report``; binning's
``achieved`` (omniscience) is that report's key recovery, because its key
and transcript rows together span every bit.
"""

from __future__ import annotations

import json
import math
import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import InternalCheckError, ResourceCapError, ValidationError
from .gf2 import Gf2Basis, complement_units
from .mmi import pin_strength
from .omniscience import rco
from .source_model import HypergraphicalSource, is_pin

__all__ = [
    "BitSourceInstance",
    "LinearScheme",
    "VerificationReport",
    "verify",
    "validate_scheme",
    "tree_packing_scheme",
    "TreePacking",
    "random_binning_omniscience",
    "RandomBinning",
    "scheme_to_json",
    "scheme_from_json",
    "BIT_CAP",
]

BIT_CAP = 1 << 16


class BitSourceInstance:
    """n independent copies of an integer-weight source, as labelled bits.

    Bit layout follows edge declaration order: edge e occupies w_e * n
    consecutive bit positions.  User masks mark the bits of incident edges.
    """

    def __init__(self, source: HypergraphicalSource, n: int):
        if not isinstance(source, HypergraphicalSource):
            raise ValidationError("bit instances need a hypergraphical source")
        if not isinstance(n, int) or n < 1:
            raise ValidationError("blocklength must be a positive integer")
        for eid, w in zip(source.edge_ids, source.weights):
            if w.denominator != 1:
                raise ValidationError(f"edge {eid!r} has non-integer weight {w}; "
                                      "bit instances need integer weights")
        self.source = source
        self.n = n
        offsets = []
        pos = 0
        for w in source.weights:
            offsets.append(pos)
            pos += int(w) * n
        if pos > BIT_CAP:
            raise ResourceCapError(f"{pos} bits exceed the instance cap {BIT_CAP}")
        self.offsets = tuple(offsets)
        self.total_bits = pos
        masks = {}
        for ui, user in enumerate(source.users):
            m = 0
            for off, w, inc in zip(offsets, source.weights, source.incidence):
                if ui in inc:
                    m |= ((1 << int(w) * n) - 1) << off
            masks[user] = m
        self._user_masks = masks

    def user_mask(self, user: str) -> int:
        try:
            return self._user_masks[user]
        except KeyError:
            raise ValidationError(f"unknown user {user!r}") from None


@dataclass(frozen=True)
class LinearScheme:
    """Transcript rows (mask, speaker) and key rows, all width `width`."""

    width: int
    transcript: tuple[tuple[int, str], ...]
    key: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.width, int) or self.width < 0:
            raise ValidationError(f"scheme width {self.width!r} is not a nonnegative integer")
        if self.width > BIT_CAP:
            raise ResourceCapError(f"scheme width {self.width} exceeds the instance cap {BIT_CAP}")
        limit = 1 << self.width
        for row, speaker in self.transcript:
            if not 0 <= row < limit:
                raise ValidationError(f"transcript row out of range for width {self.width}")
            if not isinstance(speaker, str):
                raise ValidationError("transcript speaker must be a user id")
        for row in self.key:
            if not 0 < row < limit:
                raise ValidationError("key rows must be nonzero and within width")


@dataclass(frozen=True)
class VerificationReport:
    recoverable: Mapping[str, bool]
    perfectly_secret: bool
    key_uniform: bool
    key_bits: int
    transcript_bits: int

    @property
    def ok(self) -> bool:
        return all(self.recoverable.values()) and self.perfectly_secret and self.key_uniform


def validate_scheme(instance: BitSourceInstance, scheme: LinearScheme) -> None:
    if scheme.width != instance.total_bits:
        raise ValidationError(
            f"scheme width {scheme.width} != instance bits {instance.total_bits}")
    for row, speaker in scheme.transcript:
        mask = instance.user_mask(speaker)
        if row & ~mask:
            raise ValidationError(
                f"user {speaker!r} cannot speak a row on bits outside their view")


def verify(instance: BitSourceInstance, scheme: LinearScheme) -> VerificationReport:
    """Exact checks: per-user key recovery, key uniformity, transcript/key
    independence."""
    validate_scheme(instance, scheme)
    return _verify_on(instance, scheme, Gf2Basis(row for row, _ in scheme.transcript))


def _verify_on(instance: BitSourceInstance, scheme: LinearScheme,
               a_basis: Gf2Basis) -> VerificationReport:
    """``verify`` on a valid scheme whose transcript rows span ``a_basis``."""
    b_basis = Gf2Basis(scheme.key)
    key_uniform = b_basis.rank == len(scheme.key)
    joint = a_basis.copy()
    added = sum(1 for row in scheme.key if joint.add(row))
    perfectly_secret = added == b_basis.rank

    recoverable = {}
    for user in instance.source.users:
        # Mask the observed bits off: the key is recoverable iff each key row,
        # outside the user's own bits, lies in the transcript's span there.
        hidden = ~instance.user_mask(user)
        basis = Gf2Basis(row & hidden for row in a_basis.rows)
        recoverable[user] = all(basis.contains(row & hidden) for row in scheme.key)
    return VerificationReport(
        recoverable=recoverable,
        perfectly_secret=perfectly_secret,
        key_uniform=key_uniform,
        key_bits=len(scheme.key),
        transcript_bits=len(scheme.transcript),
    )


# ---------------------------------------------------------------- packing --


def _forest_path(adj, u, v):
    """Elements on the u..v path of one forest; None if disconnected."""
    if u == v:
        return []
    prev = {u: (None, None)}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        for (y, elem) in adj[x]:
            if y not in prev:
                prev[y] = (x, elem)
                if y == v:
                    path = []
                    while y != u:
                        x2, e2 = prev[y]
                        path.append(e2)
                        y = x2
                    return path
                queue.append(y)
    return None


def _partition_into_forests(nv: int, elements: Sequence[tuple[int, int]], k: int):
    """Knuth-style matroid partition of multigraph edges into k forests.

    Inserts greedily with BFS augmentation over the exchange graph (arcs
    from an element to the members of the circuit it closes).  An element
    with no augmenting path can never be placed later, so it is skipped
    for good.  So are its clones, the later elements with the same
    endpoints: a failed insert changes nothing, swapping two clones maps
    the placed set to itself, and the span of the union only grows, so
    each clone would fail too.  Once k * (nv - 1) elements are placed,
    every forest spans and the union has full rank, so the loop stops.
    Returns (forests as element-index sets, owner map).
    """
    adj = [{v: [] for v in range(nv)} for _ in range(k)]
    owner: dict[int, int] = {}
    failed: set[tuple[int, int]] = set()

    def insert(y: int) -> bool:
        parent: dict[int, int | None] = {y: None}
        queue = deque([y])
        while queue:
            x = queue.popleft()
            ux, vx = elements[x]
            for i in range(k):
                path = _forest_path(adj[i], ux, vx)
                if path is None:
                    cur, fi = x, i
                    while True:
                        old = owner.get(cur)
                        cu, cv = elements[cur]
                        if old is not None:
                            adj[old][cu] = [(w, e) for (w, e) in adj[old][cu] if e != cur]
                            adj[old][cv] = [(w, e) for (w, e) in adj[old][cv] if e != cur]
                        adj[fi][cu].append((cv, cur))
                        adj[fi][cv].append((cu, cur))
                        owner[cur] = fi
                        p = parent[cur]
                        if p is None:
                            return True
                        cur, fi = p, old
                else:
                    for z in path:
                        if z not in parent:
                            parent[z] = x
                            queue.append(z)
        return False

    for y, ends in enumerate(elements):
        if len(owner) == k * (nv - 1):
            break
        if ends not in failed and not insert(y):
            failed.add(ends)
    forests = [set() for _ in range(k)]
    for elem, f in owner.items():
        forests[f].add(elem)
    return forests, owner


def _tree_rows(instance: BitSourceInstance, elements, tree: set[int]):
    """Key bit and transcript rows for one spanning tree.

    Edges are ordered by BFS from the lexicographically smallest user.  The
    key is the bit of the first edge; for every later edge, the endpoint
    already reached announces the XOR of that edge's bit with the bit of its
    own first incident tree edge.  Chaining these equations lets every user
    walk its anchor bit back to the key bit.
    """
    users = instance.source.users
    nv = len(users)
    adj = {v: [] for v in range(nv)}
    for elem in tree:
        u, v = elements[elem]
        adj[u].append((v, elem))
        adj[v].append((u, elem))
    for v in adj:
        adj[v].sort()
    root = 0
    visited = {root}
    order = []  # (elem, known_endpoint, new_endpoint)
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for (w, elem) in adj[v]:
            if w not in visited:
                visited.add(w)
                order.append((elem, v, w))
                queue.append(w)
    first_edge: dict[int, int] = {}
    e1, r0, w0 = order[0]
    first_edge[r0] = e1
    first_edge[w0] = e1
    rows = []
    for elem, v, w in order[1:]:
        anchor = first_edge[v]
        rows.append(((1 << anchor) | (1 << elem), users[v]))
        first_edge[w] = elem
    return (1 << e1), rows


@dataclass(frozen=True)
class TreePacking:
    instance: BitSourceInstance
    scheme: LinearScheme
    trees: tuple[tuple[int, ...], ...]
    report: VerificationReport


def tree_packing_scheme(source: HypergraphicalSource, n: int) -> TreePacking:
    """Scheme with one key bit per spanning tree packed into the n-fold
    multigraph of a pairwise source.

    The n-fold graph has strength n * sigma, so it packs floor(n * sigma)
    edge-disjoint spanning trees (Nash-Williams, Tutte); one matroid
    partition run at that count finds them.  The scheme is verified once,
    here; ``report`` holds the result.
    """
    if not is_pin(source):
        raise ValidationError("tree packing needs a source with all edges on two users")
    instance = BitSourceInstance(source, n)  # weight and bit caps before any work
    strength = pin_strength(source)
    if strength == 0:
        raise ValidationError("graph is disconnected; no spanning tree exists")
    # Element k is bit k: edges in declaration order, w_e * n bits each.
    elements = [tuple(sorted(inc)) for inc, w in zip(source.incidence, source.weights)
                for _ in range(int(w) * n)]
    nv = len(source.users)
    trees, _ = _partition_into_forests(nv, elements, math.floor(n * strength))
    if any(len(tree) != nv - 1 for tree in trees):
        raise InternalCheckError("packed forest is not spanning")
    key_rows = []
    transcript = []
    for tree in trees:
        key_row, rows = _tree_rows(instance, elements, tree)
        key_rows.append(key_row)
        transcript.extend(rows)
    scheme = LinearScheme(instance.total_bits, tuple(transcript), tuple(key_rows))
    report = verify(instance, scheme)
    if not report.ok:
        raise InternalCheckError("tree-packing scheme failed its own verification")
    return TreePacking(instance, scheme, tuple(tuple(sorted(t)) for t in trees), report)


# ---------------------------------------------------------------- binning --


@dataclass(frozen=True)
class RandomBinning:
    instance: BitSourceInstance
    scheme: LinearScheme
    achieved: bool
    rates: Mapping[str, Fraction]
    report: VerificationReport


# Byte -> b"1" when its top bit is set, else b"0".
_TOP_BIT = bytes(48 + (b >> 7) for b in range(256))


def _random_row(rng: random.Random, runs: Sequence[tuple[int, int]]) -> int:
    """Random row on the bit runs (offset, length), ascending and not all
    empty: a user who observes nothing has rate 0 at every rco optimum.

    Bit for bit the row of one ``rng.getrandbits(1)`` per bit, lowest bit
    first, and it leaves ``rng`` in the same state: that draw is the top bit
    of one 32-bit Mersenne Twister word, and ``getrandbits(32 * w)`` returns
    the next w words, low word first.
    """
    width = sum(length for _, length in runs)
    tops = rng.getrandbits(32 * width).to_bytes(4 * width, "little")[3::4]
    draws = int(tops.translate(_TOP_BIT)[::-1], 2)
    row = 0
    for off, length in runs:
        row |= (draws & ((1 << length) - 1)) << off
        draws >>= length
    return row


def random_binning_omniscience(source: HypergraphicalSource, n: int, seed: int) -> RandomBinning:
    """Random linear binning at the optimal discussion rates.

    Every user with positive rate r_i broadcasts ceil(n * r_i) random
    parities of its own bits, padded by ceil(2 * log2(m + 1)) extra rows to
    absorb rank defects.  The key is the unit vectors at the non-pivot
    positions of the transcript's echelon basis, so key and transcript rows
    together span all m bits, and secrecy and uniformity hold by
    construction.  A user who recovers the key from own bits plus transcript
    therefore recovers every bit, and the converse is trivial: `achieved`
    (omniscience of all users) is the key recovery of the one verification,
    kept as `report`.  That verification runs on the echelon basis the key
    was read off, so the transcript is reduced once.
    """
    if not isinstance(source, HypergraphicalSource):
        raise ValidationError("random binning needs a hypergraphical source")
    instance = BitSourceInstance(source, n)
    m = instance.total_bits
    witness = rco(source).witness
    rng = random.Random(seed)
    margin = math.ceil(2 * math.log2(m + 1))
    transcript = []
    for ui, user in enumerate(source.users):
        r = witness.rates[user]
        if r <= 0:
            continue
        runs = [(off, int(w) * n) for off, w, inc
                in zip(instance.offsets, source.weights, source.incidence) if ui in inc]
        for _ in range(math.ceil(n * r) + margin):
            transcript.append((_random_row(rng, runs), user))
    # Every row lies in its speaker's view and the width is m, so the scheme
    # is valid, and the basis that yields the key is the one verify builds.
    a_basis = Gf2Basis(row for row, _ in transcript)
    scheme = LinearScheme(m, tuple(transcript), tuple(complement_units(a_basis, m)))
    report = _verify_on(instance, scheme, a_basis)
    return RandomBinning(instance, scheme, all(report.recoverable.values()),
                         dict(witness.rates), report)


# ------------------------------------------------------------------- json --


def scheme_to_json(scheme: LinearScheme) -> str:
    data = {
        "width": scheme.width,
        "transcript": [{"row": format(row, "x"), "speaker": sp} for row, sp in scheme.transcript],
        "key": [format(row, "x") for row in scheme.key],
    }
    return json.dumps(data, sort_keys=True)


def scheme_from_json(text: str) -> LinearScheme:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"bad scheme JSON: {exc}") from exc
    try:
        width = int(data["width"])
        transcript = tuple((int(item["row"], 16), item["speaker"]) for item in data["transcript"])
        key = tuple(int(row, 16) for row in data["key"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"bad scheme JSON structure: {exc}") from exc
    return LinearScheme(width, transcript, key)
