"""Source models for multiterminal key agreement.

Two kinds of finite sources are supported:

* ``HypergraphicalSource``: users jointly observe independent edge variables.
  Each edge ``e`` carries ``w_e`` uniform bits (rational weight) and is seen
  by the users in its incidence set.  All entropies are exact rationals: the
  entropy of a user group is the total weight of edges touching the group.
* ``JointPMF``: an explicit finite joint distribution.  Entropies are floats
  in bits.

This module is the one entropy oracle: ``entropy`` for one user set,
``entropy_table`` for all of them at once and ``entropy_of_masses`` for a
distribution given by its masses.  Both kinds parse from a small
JSON schema, see ``parse_source``.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

from .errors import ResourceCapError, ValidationError

__all__ = [
    "HypergraphicalSource",
    "JointPMF",
    "EdgeRestriction",
    "SourceSpec",
    "parse_source",
    "load_source",
    "parse_rational",
    "format_number",
    "entropy",
    "entropy_of_masses",
    "entropy_table",
    "conditional_entropy",
    "is_pin",
    "gacs_korner",
    "restrict",
    "PMF_SUPPORT_CAP",
]

# Every pmf entropy sums over the support rows in Python, and mmi and rco
# take one entropy per user set (2^n of them); the cap bounds that work.
PMF_SUPPORT_CAP = 100_000


# Python reads and prints an int of at most this many decimal digits; the
# constant stands in for sys.get_int_max_str_digits, new in 3.10.7.
_MAX_DIGITS = 4300
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*$")


def parse_rational(value) -> Fraction:
    """Parse an integer, or a string like ``"3"`` or ``"5/4"``, to a Fraction."""
    if isinstance(value, bool):
        raise ValidationError(f"expected a rational number, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            # Fraction() builds 10**exponent first: the mantissa digits plus
            # the exponent bound the digits of the result.
            exponent = _EXPONENT.search(value)
            if exponent and abs(int(exponent[1])) + sum(
                    map(str.isdigit, value[:exponent.start()])) > _MAX_DIGITS:
                raise ValidationError(f"rational literal {value[:40]!r} has more than "
                                      f"{_MAX_DIGITS} digits")
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"bad rational literal {value!r}") from exc
    raise ValidationError(f"expected a rational number, got {type(value).__name__}")


def format_number(value) -> str:
    """Serialize a number: rationals as ``p/q`` strings, floats to 12 significant digits."""
    if isinstance(value, (Fraction, int)):
        try:
            return str(value)
        except ValueError:  # past _MAX_DIGITS
            raise ResourceCapError(f"a result has more than {_MAX_DIGITS} digits") from None
    return format(float(value), ".12g")


@dataclass(frozen=True)
class HypergraphicalSource:
    """Independent edge variables; user i observes every edge incident to it.

    ``incidence[k]`` is the frozenset of user indices of edge k and
    ``weights[k]`` its entropy in bits (positive rational).  Isolated users
    are rejected at parse time but tolerated by this container so that edge
    restrictions can drop a user's last edge.  ``denominator`` is the lcm D
    of the weight denominators and ``int_weights[k]`` is ``weights[k] * D``.
    """

    users: tuple[str, ...]
    edge_ids: tuple[str, ...]
    incidence: tuple[frozenset[int], ...]
    weights: tuple[Fraction, ...]
    _edge_masks: tuple[int, ...] = field(init=False, repr=False, compare=False)
    denominator: int = field(init=False, repr=False, compare=False)
    int_weights: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(set(self.users)) != len(self.users):
            raise ValidationError("duplicate user ids")
        if len(self.users) < 2:
            raise ValidationError("a source needs at least two users")
        if len(set(self.edge_ids)) != len(self.edge_ids):
            raise ValidationError("duplicate edge ids")
        n = len(self.users)
        for eid, inc, w in zip(self.edge_ids, self.incidence, self.weights):
            if not inc:
                raise ValidationError(f"edge {eid!r} has empty incidence")
            if any(i < 0 or i >= n for i in inc):
                raise ValidationError(f"edge {eid!r} references an unknown user")
            if w <= 0:
                raise ValidationError(f"edge {eid!r} needs positive weight, got {w}")
        masks = tuple(sum(1 << i for i in inc) for inc in self.incidence)
        object.__setattr__(self, "_edge_masks", masks)
        denom = math.lcm(*(w.denominator for w in self.weights))
        object.__setattr__(self, "denominator", denom)
        object.__setattr__(self, "int_weights",
                           tuple(w.numerator * (denom // w.denominator) for w in self.weights))

    @property
    def kind(self) -> str:
        return "hypergraph"

    def user_index(self, user: str) -> int:
        try:
            return self.users.index(user)
        except ValueError:
            raise ValidationError(f"unknown user id {user!r}") from None

    def edge_masks(self) -> tuple[int, ...]:
        """Incidence sets as bitmasks over user indices."""
        return self._edge_masks

    def entropy_of_mask(self, mask: int) -> Fraction:
        """Total weight of edges touching the user set given as a bitmask."""
        touching = sum(w for emask, w in zip(self._edge_masks, self.int_weights) if emask & mask)
        return Fraction(touching, self.denominator)

    def total_entropy(self) -> Fraction:
        return Fraction(sum(self.int_weights), self.denominator)


@dataclass(frozen=True)
class JointPMF:
    """Explicit joint distribution over per-user finite alphabets.

    ``outcomes`` lists the support (tuples of symbol indices) and ``probs``
    the matching positive probabilities.
    """

    users: tuple[str, ...]
    alphabets: tuple[int, ...]
    outcomes: tuple[tuple[int, ...], ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        if len(set(self.users)) != len(self.users):
            raise ValidationError("duplicate user ids")
        if len(self.users) < 2:
            raise ValidationError("a source needs at least two users")
        if len(self.alphabets) != len(self.users):
            raise ValidationError("alphabets must list one size per user")
        if any(a < 1 for a in self.alphabets):
            raise ValidationError("alphabet sizes must be at least 1")
        if len(self.outcomes) > PMF_SUPPORT_CAP:
            raise ResourceCapError(
                f"pmf support {len(self.outcomes)} exceeds cap {PMF_SUPPORT_CAP}"
            )
        seen = set()
        for row, p in zip(self.outcomes, self.probs):
            if len(row) != len(self.users):
                raise ValidationError("outcome arity does not match user count")
            for sym, size in zip(row, self.alphabets):
                if not 0 <= sym < size:
                    raise ValidationError(f"symbol {sym} outside alphabet of size {size}")
            if row in seen:
                raise ValidationError(f"duplicate outcome row {row}")
            seen.add(row)
            if not math.isfinite(p):
                raise ValidationError(f"probability {p!r} is not finite")
            if p <= 0:
                raise ValidationError("support probabilities must be positive")
        total = math.fsum(self.probs)
        if abs(total - 1.0) > 1e-12:
            raise ValidationError(f"probabilities sum to {total!r}, not 1")

    @property
    def kind(self) -> str:
        return "pmf"

    def user_index(self, user: str) -> int:
        try:
            return self.users.index(user)
        except ValueError:
            raise ValidationError(f"unknown user id {user!r}") from None

    def marginal(self, idxs: Sequence[int]) -> dict[tuple[int, ...], float]:
        out: dict[tuple[int, ...], float] = {}
        for row, p in zip(self.outcomes, self.probs):
            key = tuple(row[i] for i in idxs)
            out[key] = out.get(key, 0.0) + p
        return out


SourceSpec = Union[HypergraphicalSource, JointPMF]


@dataclass(frozen=True)
class EdgeRestriction:
    """Retained fraction per edge, each in [0, 1].

    Fraction f means the edge contributes f of its weight, the per-sample
    time-sharing reading of dropping part of an edge variable.
    """

    fractions: Mapping[str, Fraction]

    def __post_init__(self):
        for eid, f in self.fractions.items():
            if not 0 <= f <= 1:
                raise ValidationError(f"restriction for edge {eid!r} outside [0,1]: {f}")

    def fraction_for(self, edge_id: str) -> Fraction:
        return Fraction(self.fractions.get(edge_id, Fraction(1)))

    def is_zero_one(self) -> bool:
        return all(f in (0, 1) for f in self.fractions.values())


def _parse_hypergraph(data: dict) -> HypergraphicalSource:
    users = data.get("users")
    if not isinstance(users, list) or not all(isinstance(u, str) for u in users):
        raise ValidationError("'users' must be a list of strings")
    edges = data.get("edges")
    if not isinstance(edges, list) or not edges:
        raise ValidationError("'edges' must be a non-empty list")
    index = {u: i for i, u in enumerate(users)}
    ids, incs, weights = [], [], []
    for entry in edges:
        if not isinstance(entry, dict):
            raise ValidationError("each edge must be an object")
        unknown = set(entry) - {"id", "on", "bits"}
        if unknown:
            raise ValidationError(f"unknown edge keys {sorted(unknown)}")
        eid = entry.get("id")
        if not isinstance(eid, str):
            raise ValidationError("edge 'id' must be a string")
        on = entry.get("on")
        if not isinstance(on, list) or not on:
            raise ValidationError(f"edge {eid!r}: 'on' must be a non-empty list")
        if not all(isinstance(u, str) for u in on):
            raise ValidationError(f"edge {eid!r}: 'on' must list user ids as strings")
        try:
            inc = frozenset(index[u] for u in on)
        except KeyError as exc:
            raise ValidationError(f"edge {eid!r} references unknown user {exc.args[0]!r}") from None
        ids.append(eid)
        incs.append(inc)
        weights.append(parse_rational(entry.get("bits")))
    src = HypergraphicalSource(tuple(users), tuple(ids), tuple(incs), tuple(weights))
    covered = set()
    for inc in incs:
        covered |= inc
    missing = [users[i] for i in range(len(users)) if i not in covered]
    if missing:
        raise ValidationError(f"isolated users (no incident edge): {missing}")
    return src


def _parse_pmf(data: dict) -> JointPMF:
    users = data.get("users")
    if not isinstance(users, list) or not all(isinstance(u, str) for u in users):
        raise ValidationError("'users' must be a list of strings")
    alphabets = data.get("alphabets")
    if not isinstance(alphabets, list) or not all(isinstance(a, int) and not isinstance(a, bool) for a in alphabets):
        raise ValidationError("'alphabets' must be a list of integers")
    table = data.get("table")
    if not isinstance(table, list) or not table:
        raise ValidationError("'table' must be a non-empty list of rows")
    outcomes, probs = [], []
    for row in table:
        if not isinstance(row, list) or len(row) != len(users) + 1:
            raise ValidationError("each table row is [symbol per user ..., probability]")
        *syms, p = row
        if not all(isinstance(s, int) and not isinstance(s, bool) for s in syms):
            raise ValidationError("outcome symbols must be integers")
        if not isinstance(p, (int, float)) or isinstance(p, bool):
            raise ValidationError("probability must be a number")
        try:
            p = float(p)
        except OverflowError:
            raise ValidationError("probability is past the float range") from None
        if p < 0:
            raise ValidationError("probabilities must be nonnegative")
        if p == 0:
            continue
        outcomes.append(tuple(syms))
        probs.append(p)
    return JointPMF(tuple(users), tuple(alphabets), tuple(outcomes), tuple(probs))


def parse_source(data: dict) -> SourceSpec:
    """Build a source from a decoded JSON document.

    Hypergraph form::

        {"kind": "hypergraph", "users": ["1","2"], "edges": [{"id":"a","on":["1","2"],"bits":"1"}]}

    PMF form::

        {"kind": "pmf", "users": ["1","2"], "alphabets": [2,2], "table": [[0,0,0.5],[1,1,0.5]]}
    """
    if not isinstance(data, dict):
        raise ValidationError("source document must be a JSON object")
    kind = data.get("kind")
    if kind == "hypergraph":
        return _parse_hypergraph(data)
    if kind == "pmf":
        return _parse_pmf(data)
    raise ValidationError(f"unknown source kind {kind!r}")


def _read_json(path):
    """The JSON value in a file; an unreadable or malformed file (bad
    syntax, non-UTF-8 bytes, nesting past the recursion limit, an integer
    literal past Python's digit limit) is a ValidationError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"invalid JSON in {path}: {exc}") from exc


def load_source(path) -> SourceSpec:
    """Read and parse a source JSON file."""
    return parse_source(_read_json(path))


def entropy_of_masses(masses: Iterable[float]) -> float:
    """Entropy in bits of a distribution given by its masses; zeros are skipped."""
    total = 0.0
    for p in masses:
        if p > 0:
            total -= p * math.log2(p)
    return total


def entropy(source: SourceSpec, group: Iterable[str]) -> Fraction | float:
    """Joint entropy of the observations of ``group``, in bits.

    Exact rational for hypergraphical sources (weighted edge coverage),
    float for pmfs.
    """
    group = list(group)
    if not group:
        return Fraction(0) if source.kind == "hypergraph" else 0.0
    if isinstance(source, HypergraphicalSource):
        return source.entropy_of_mask(sum({1 << source.user_index(u) for u in group}))
    idxs = sorted({source.user_index(u) for u in group})
    return entropy_of_masses(source.marginal(idxs).values())


def entropy_table(source: SourceSpec) -> list:
    """h[mask], the joint entropy of every user set given as a bitmask.

    Hypergraphs: ints over ``source.denominator``, from ``_hypergraph_table``
    on the integer weights.  Pmfs: floats, one ``entropy`` call per set.
    """
    n = len(source.users)
    if isinstance(source, HypergraphicalSource):
        return _hypergraph_table(n, source._edge_masks, source.int_weights)
    users = source.users
    return [entropy(source, [u for i, u in enumerate(users) if mask >> i & 1]) for mask in range(1 << n)]


def _hypergraph_table(n: int, edge_masks: Sequence[int], weights: Sequence[int]) -> list[int]:
    """h[mask], the total weight of the edges touching each user set.

    One subset-sum pass gives inside[S], the weight of the edges within S;
    h[S] is all edges less those within the complement of S.
    """
    size = 1 << n
    inside = [0] * size
    for emask, w in zip(edge_masks, weights):
        inside[emask] += w
    for i in range(n):
        bit = 1 << i
        for mask in range(size):
            if mask & bit:
                inside[mask] += inside[mask ^ bit]
    total = inside[-1]
    return [total - inside[(size - 1) ^ mask] for mask in range(size)]


def conditional_entropy(source: SourceSpec, group: Iterable[str]) -> Fraction | float:
    """H of the group's observations given everything observed outside it,
    H(V) - H(complement): for a hypergraph, the weight of edges inside it."""
    inside = {source.user_index(u) for u in group}
    rest = [u for i, u in enumerate(source.users) if i not in inside]
    return entropy(source, source.users) - entropy(source, rest)


def is_pin(source: SourceSpec) -> bool:
    """True when every edge is incident to exactly two users; False for a
    pmf, which has no edges."""
    return isinstance(source, HypergraphicalSource) and all(
        len(inc) == 2 for inc in source.incidence)


def _gacs_korner_pmf(source: JointPMF) -> float:
    # Maximum common function: finest labeling constant on every coordinate
    # fiber.  Outcomes sharing any coordinate value must share a label, so the
    # labels are the connected components of that agreement relation.
    parent = list(range(len(source.outcomes)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    buckets: dict[tuple[int, int], int] = {}
    for k, row in enumerate(source.outcomes):
        for coord, sym in enumerate(row):
            key = (coord, sym)
            if key in buckets:
                union(buckets[key], k)
            else:
                buckets[key] = k
    mass: dict[int, float] = {}
    for k, p in enumerate(source.probs):
        r = find(k)
        mass[r] = mass.get(r, 0.0) + p
    return entropy_of_masses(mass.values())


def gacs_korner(source: SourceSpec) -> Fraction | float:
    """Entropy of the maximum function all users can compute on their own.

    Hypergraphical fast path: total weight of edges incident to every user.
    PMF path: entropy of the connected components of the support under
    coordinate agreement.
    """
    if isinstance(source, HypergraphicalSource):
        full = frozenset(range(len(source.users)))
        return sum((w for inc, w in zip(source.incidence, source.weights) if inc == full), Fraction(0))
    return _gacs_korner_pmf(source)


def restrict(source: HypergraphicalSource, restriction: EdgeRestriction | Mapping[str, Fraction]) -> HypergraphicalSource:
    """Scale edge weights by retained fractions; zero-weight edges are dropped.

    Unlisted edges keep fraction 1.  The user set is unchanged, so a user may
    end up with no incident edge in the result.
    """
    if not isinstance(source, HypergraphicalSource):
        raise ValidationError("restrict applies to hypergraphical sources")
    if not isinstance(restriction, EdgeRestriction):
        restriction = EdgeRestriction({k: Fraction(v) for k, v in restriction.items()})
    unknown = set(restriction.fractions) - set(source.edge_ids)
    if unknown:
        raise ValidationError(f"restriction names unknown edges {sorted(unknown)}")
    ids, incs, weights = [], [], []
    for eid, inc, w in zip(source.edge_ids, source.incidence, source.weights):
        f = restriction.fraction_for(eid)
        if f == 0:
            continue
        ids.append(eid)
        incs.append(inc)
        weights.append(w * f)
    return HypergraphicalSource(source.users, tuple(ids), tuple(incs), tuple(weights))
