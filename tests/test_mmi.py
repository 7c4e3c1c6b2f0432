import itertools
import random
from fractions import Fraction as F

import pytest

from skalc.errors import ResourceCapError, ValidationError
from skalc.mmi import (
    DEFAULT_USER_CAP,
    HARD_USER_CAP,
    iter_partitions,
    mmi,
    partition_info,
    pin_strength,
)
from skalc.source_model import HypergraphicalSource, entropy, parse_source, restrict

import _oracle
import _sources

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def _blocks(partition):
    return sorted(sorted(b) for b in partition)


def test_triangle_value_and_unique_minimizer(triangle):
    result = mmi(triangle)
    assert result.value == F(3, 2)
    assert _blocks(result.finest) == [["1"], ["2"], ["3"]]
    assert len(result.minimizers) == 1


def test_example1_minimizers(example1):
    result = mmi(example1)
    assert result.value == F(2)
    assert _blocks(result.finest) == [["1"], ["2"], ["3"]]
    # {1|23} and {12|3} tie with the singleton split
    assert len(result.minimizers) == 3
    for part in result.minimizers:
        assert partition_info(example1, part) == F(2)


def _labels(blocks, n):
    return tuple(next(j for j, m in enumerate(blocks) if m >> i & 1) for i in range(n))


def test_iter_partitions_enumerates_all():
    parts = [_labels(blocks, 4) for blocks in iter_partitions(4)]
    assert len(parts) == 15
    assert len(set(parts)) == 15
    for rgs in parts:
        assert rgs[0] == 0
        for i in range(1, len(rgs)):
            assert rgs[i] <= max(rgs[:i]) + 1


def test_iter_partitions_matches_rgs_order():
    assert list(iter_partitions(0)) == []
    for n in range(1, 8):
        expected = [tuple(_oracle.labels_to_masks(labels)) for labels in _oracle.iter_rgs(n)]
        assert list(iter_partitions(n)) == expected


def test_partition_info_manual(example1):
    # (H(13) + H(2) - H(V)) / 1
    assert partition_info(example1, [["1", "3"], ["2"]]) == F(3)
    with pytest.raises(ValidationError):
        partition_info(example1, [["1", "2", "3"]])
    with pytest.raises(ValidationError):
        partition_info(example1, [["1"], ["2"]])
    with pytest.raises(ValidationError):
        partition_info(example1, [["1", "2"], ["2", "3"]])


def test_mmi_scales_with_weights(triangle):
    scaled = restrict(triangle, {e: F(1) for e in triangle.edge_ids})
    base = mmi(triangle).value
    halved = restrict(triangle, {e: F(1, 2) for e in triangle.edge_ids})
    assert mmi(halved).value == base / 2
    assert entropy(halved, halved.users) == F(3, 2)
    assert mmi(scaled).value == base


def test_mmi_pmf_matches_hypergraph(triangle):
    psrc = parse_source(_sources.hypergraph_as_pmf(_sources.TRIANGLE))
    result = mmi(psrc)
    assert abs(result.value - 1.5) < 1e-9
    assert _blocks(result.finest) == [["1"], ["2"], ["3"]]


def test_mmi_two_user_pmf_is_mutual_information(intro_pmf):
    from skalc.two_user import mutual_information
    result = mmi(intro_pmf)
    assert abs(result.value - mutual_information(intro_pmf)) < 1e-12
    assert abs(result.value - 1.0) < 1e-9


def test_minimizers_refined_by_finest():
    rng = random.Random(17)
    for _ in range(12):
        src = parse_source(_sources.random_hypergraph(rng, n_users=rng.randint(2, 5)))
        result = mmi(src)
        for part in result.minimizers:
            assert partition_info(src, part) == result.value
            for block in result.finest:
                assert any(block <= other for other in part)


def test_user_caps():
    rng = random.Random(1)
    big = _sources.random_hypergraph(rng, n_users=DEFAULT_USER_CAP + 1, n_edges=12)
    src = parse_source(big)
    with pytest.raises(ResourceCapError):
        mmi(src)
    with pytest.raises(ValidationError):
        mmi(src, cap=HARD_USER_CAP + 1)
    huge = parse_source(_sources.random_hypergraph(rng, n_users=HARD_USER_CAP + 1, n_edges=16))
    with pytest.raises(ResourceCapError):
        mmi(huge, cap=HARD_USER_CAP)


def _assert_matches_oracle(src):
    got, want = mmi(src), _oracle.mmi_two_pass(src)
    assert got.value == want.value
    assert type(got.value) is type(want.value)
    assert got.finest == want.finest
    assert got.minimizers == want.minimizers


def test_mmi_matches_two_pass_oracle_on_hypergraphs():
    rng = random.Random(2024)
    for i in range(105):
        n = 2 + i % 7
        _assert_matches_oracle(parse_source(_sources.random_hypergraph(
            rng, n_users=n, integer_weights=i % 2 == 0)))


def test_mmi_matches_two_pass_oracle_on_pmfs():
    rng = random.Random(5)
    sources = [_sources.hypergraph_as_pmf(_sources.TRIANGLE),
               _sources.hypergraph_as_pmf(_sources.EXAMPLE1)]
    for n in (3, 4, 3, 4):
        table = [[*syms, rng.randint(1, 9)]
                 for syms in itertools.product((0, 1), repeat=n) if rng.random() < 0.7]
        mass = sum(row[-1] for row in table)
        sources.append({"kind": "pmf", "users": [str(i) for i in range(n)],
                        "alphabets": [2] * n,
                        "table": [[*row[:-1], row[-1] / mass] for row in table]})
    for data in sources:
        _assert_matches_oracle(parse_source(data))


@st.composite
def pairwise_sources(draw):
    """Pairwise sources on 2-8 users with rational weights and parallel
    edges.  With ``split`` set, no edge crosses between the first half of the
    users and the rest, so the graph is disconnected; isolated users may
    occur either way."""
    n = draw(st.integers(2, 8))
    cut = n // 2 if draw(st.booleans()) else 0
    weight = st.builds(F, st.integers(1, 6), st.sampled_from([1, 2, 3, 4]))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), weight),
                          max_size=14))
    edges = [(u, v, w) for u, v, w in edges if u != v and (u < cut) == (v < cut)]
    parallel = [edges[0]] if edges and draw(st.booleans()) else []
    edges += parallel
    return HypergraphicalSource(
        tuple(str(i) for i in range(n)),
        tuple(f"e{k}" for k in range(len(edges))),
        tuple(frozenset((u, v)) for u, v, _ in edges),
        tuple(w for _, _, w in edges),
    )


@settings(max_examples=200)
@given(src=pairwise_sources())
def test_pin_strength_equals_bell_mmi(src):
    assert pin_strength(src) == mmi(src).value


def test_pin_strength_fixtures_and_rejects(triangle, star, path3, example1, intro_pmf):
    assert pin_strength(triangle) == F(3, 2)
    assert pin_strength(star) == F(1)
    assert pin_strength(path3) == F(1)
    split = parse_source(_sources.hg("1234", [("a", "12", 1), ("b", "34", F(1, 2))]))
    assert pin_strength(split) == 0
    for bad in (example1, intro_pmf):
        with pytest.raises(ValidationError):
            pin_strength(bad)
