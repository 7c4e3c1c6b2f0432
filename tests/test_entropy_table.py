"""The all-masks entropy table against the per-set entropy paths.

``entropy_table`` is what mmi and rco read, so every entry must equal the
one-set oracle exactly: ints over the source's weight denominator for
hypergraphs, the same float as ``entropy`` for pmfs.
"""

import math
import random
from fractions import Fraction as F

import pytest

import skalc.omniscience
from skalc.omniscience import rco
from skalc.source_model import (
    HypergraphicalSource,
    conditional_entropy,
    entropy,
    entropy_table,
    parse_source,
)

import _sources

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

HYPERGRAPH_FIXTURES = ("EXAMPLE1", "TRIANGLE", "STAR", "PATH3", "OMNI")
PMF_FIXTURES = ("INTRO_PMF", "BIT_PMF", "HALF_PMF", "INDEP_PMF")


def _users_of(source, mask):
    return [u for i, u in enumerate(source.users) if mask >> i & 1]


@st.composite
def hypergraphs(draw):
    """Hypergraphs on 2-9 users with rational weights; a parallel copy of the
    first edge is added half the time, and isolated users may occur."""
    n = draw(st.integers(2, 9))
    weight = st.builds(F, st.integers(1, 8), st.sampled_from([1, 2, 3, 4, 6]))
    edges = draw(st.lists(st.tuples(st.integers(1, (1 << n) - 1), weight), max_size=12))
    if edges and draw(st.booleans()):
        edges.append(edges[0])
    return HypergraphicalSource(
        tuple(str(i) for i in range(n)),
        tuple(f"e{k}" for k in range(len(edges))),
        tuple(frozenset(i for i in range(n) if m >> i & 1) for m, _ in edges),
        tuple(w for _, w in edges),
    )


def _random_pmf(rng):
    n = rng.randint(2, 4)
    alphabets = [rng.randint(1, 3) for _ in range(n)]
    rows = {tuple(rng.randrange(a) for a in alphabets) for _ in range(rng.randint(1, 12))}
    masses = [rng.random() + 0.01 for _ in rows]
    total = sum(masses)
    table = [[*row, m / total] for row, m in zip(sorted(rows), masses)]
    return parse_source({"kind": "pmf", "users": [str(i) for i in range(n)],
                         "alphabets": alphabets, "table": table})


def _assert_hypergraph_table(src):
    table = entropy_table(src)
    assert len(table) == 1 << len(src.users)
    for mask, h in enumerate(table):
        touching = sum((w for em, w in zip(src.edge_masks(), src.weights) if em & mask), F(0))
        assert type(h) is int
        assert h == src.entropy_of_mask(mask) * src.denominator
        assert F(h, src.denominator) == touching


def _assert_constraints_match(src, monkeypatch):
    """rco's LP objective is minus its constraint vector in the entropy
    table's units, one entry per proper subset in mask order: D times
    H(B | rest) for a hypergraph over D, the lifted float for a pmf."""
    seen = []
    real = skalc.omniscience.simplex_min

    def spy(c, rows, rhs):
        seen.append(list(c))
        return real(c, rows, rhs)

    with monkeypatch.context() as patch:
        patch.setattr(skalc.omniscience, "simplex_min", spy)
        rco(src)
    (c,) = seen
    masks = range(1, (1 << len(src.users)) - 1)
    scale = src.denominator if isinstance(src, HypergraphicalSource) else 1
    assert len(c) == len(masks)
    for cb, mask in zip(c, masks):
        assert -cb == F(conditional_entropy(src, _users_of(src, mask))) * scale


@pytest.mark.parametrize("name", HYPERGRAPH_FIXTURES)
def test_hypergraph_fixture_tables(name):
    _assert_hypergraph_table(parse_source(getattr(_sources, name)))


@settings(max_examples=150)
@given(src=hypergraphs())
def test_hypergraph_table_equals_entropy_of_mask(src):
    _assert_hypergraph_table(src)


@settings(max_examples=150)
@given(src=hypergraphs())
def test_integer_weights_are_the_weights_over_one_denominator(src):
    assert src.denominator == math.lcm(*(w.denominator for w in src.weights))
    for k, w in zip(src.int_weights, src.weights):
        assert F(k, src.denominator) == w
    # Derived fields stay out of equality, hashing and repr.
    twin = HypergraphicalSource(src.users, src.edge_ids, src.incidence, src.weights)
    assert twin == src and hash(twin) == hash(src)
    assert "int_weights" not in repr(src) and "denominator" not in repr(src)


def test_pmf_tables_equal_entropy_bit_for_bit():
    rng = random.Random(3)
    sources = [parse_source(getattr(_sources, name)) for name in PMF_FIXTURES]
    sources += [_random_pmf(rng) for _ in range(40)]
    sources.append(parse_source(_sources.hypergraph_as_pmf(_sources.EXAMPLE1)))
    for src in sources:
        table = entropy_table(src)
        assert len(table) == 1 << len(src.users)
        for mask, h in enumerate(table):
            assert type(h) is float
            assert h == entropy(src, _users_of(src, mask))


@pytest.mark.parametrize("name", HYPERGRAPH_FIXTURES + PMF_FIXTURES)
def test_rco_constraints_equal_conditional_entropy_fixtures(name, monkeypatch):
    _assert_constraints_match(parse_source(getattr(_sources, name)), monkeypatch)


def test_rco_constraints_equal_conditional_entropy_random(monkeypatch):
    rng = random.Random(5)
    for _ in range(20):
        _assert_constraints_match(parse_source(_sources.random_hypergraph(rng)), monkeypatch)
        _assert_constraints_match(_random_pmf(rng), monkeypatch)
