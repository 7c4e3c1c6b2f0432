import importlib
import itertools
import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from skalc.cli import main
from skalc.errors import InternalCheckError, ResourceCapError, ValidationError
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
from _benchmark import benchmark_jobs

# The package's ``mmi`` attribute is the function, so the module comes from
# the import system.
mmi_mod = importlib.import_module("skalc.mmi")

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


# --------------------------------------------------- Newton engine --

BELL = (1, 1, 2, 5, 15, 52, 203, 877, 4140)


def _components(src):
    """Number of connected components, each edge joining all its users."""
    parent = list(range(len(src.users)))

    def find(u):
        while parent[u] != u:
            u = parent[u]
        return u

    for inc in src.incidence:
        first, *rest = inc
        for u in rest:
            parent[find(u)] = find(first)
    return len({find(u) for u in range(len(src.users))})


@st.composite
def hypergraph_sources(draw):
    """Hypergraphs on 2-8 users with rational weights and parallel edges.
    Users fall into up to three groups that no edge joins, so sources may be
    disconnected; single-user edges and isolated users occur.  Half the
    sources get a path through each group.  Weights come from a small set,
    so ties, and with them many minimizers, are common."""
    n = draw(st.integers(2, 8))
    groups = draw(st.sampled_from([1, 1, 2, 3]))
    group = draw(st.lists(st.integers(0, groups - 1), min_size=n, max_size=n))
    weight = st.sampled_from([F(1), F(1), F(2), F(1, 2), F(3, 2), F(5, 3)])
    raw = draw(st.lists(st.tuples(st.integers(0, groups - 1),
                                  st.sets(st.integers(0, n - 1), min_size=1), weight,
                                  st.booleans()),
                        max_size=12))
    if draw(st.booleans()):
        # a path through each group's users, so that each group is connected
        for g in range(groups):
            members = [u for u in range(n) if group[u] == g]
            raw += [(g, {u, v}, draw(weight), False) for u, v in zip(members, members[1:])]
    incidence, weights = [], []
    for g, on, w, parallel in raw:
        on = frozenset(u for u in on if group[u] == g)
        if on:
            incidence += [on] * (1 + parallel)
            weights += [w] * (1 + parallel)
    return HypergraphicalSource(
        tuple(str(i) for i in range(n)),
        tuple(f"e{k}" for k in range(len(incidence))),
        tuple(incidence),
        tuple(weights),
    )


@settings(max_examples=150, deadline=None)
@given(src=hypergraph_sources())
def test_engine_matches_two_pass_oracle(src):
    _assert_matches_oracle(src)
    c = _components(src)
    if c > 1:
        result = mmi(src)
        assert result.value == 0
        assert len(result.minimizers) == BELL[c] - 1


def test_engine_on_disconnected_and_tied_sources():
    # Three components: 0, and Bell(3) - 1 = 4 minimizers, the coarsenings
    # of {01 | 23 | 4} with two or more blocks.
    split = parse_source(_sources.hg("01234", [("a", "01", 1), ("b", "23", F(1, 2)),
                                               ("c", "4", 3), ("d", "01", 1)]))
    result = mmi(split)
    assert result.value == 0 and len(result.minimizers) == 4
    assert _blocks(result.finest) == [["0", "1"], ["2", "3"], ["4"]]
    _assert_matches_oracle(split)
    # One edge on all of 6 users ties every partition: Bell(6) - 1 minimizers.
    full = parse_source(_sources.hg("012345", [("a", "012345", 2)]))
    assert len(mmi(full).minimizers) == BELL[6] - 1
    _assert_matches_oracle(full)


def _pool_sources():
    return [parse_source(job.source) for job in benchmark_jobs("exact-partition")
            if job.kind == "mmi"]


def test_engine_matches_bell_scan_on_the_benchmark_pool():
    sources = _pool_sources()
    assert {len(src.users) for src in sources} == {8, 9}
    for src in sources:
        got, want = mmi(src, cap=9), _oracle.mmi_bell(src)
        assert (got.value, got.finest, got.minimizers) == (want.value, want.finest, want.minimizers)


def test_mmi_enumerates_only_coarsenings_of_the_finest(monkeypatch):
    sizes = []
    enumerate_ = mmi_mod.iter_partitions

    def counted(k):
        sizes.append(k)
        return enumerate_(k)

    monkeypatch.setattr(mmi_mod, "iter_partitions", counted)
    nine = [src for src in _pool_sources() if len(src.users) == 9]
    assert nine
    for src in nine:
        sizes.clear()
        result = mmi(src, cap=9)
        assert sizes == [len(result.finest)]


def test_mmi_stdout_on_the_benchmark_pools_is_pinned(capsys, write_source):
    pinned = json.loads((Path(__file__).parent / "mmi_exact_partition_stdout.json").read_text(
        encoding="utf-8"))
    cases = {f"{seed}/{job.group}": job.source
             for seed in (1, 2) for job in benchmark_jobs("exact-partition", seed=seed)
             if job.kind == "mmi"}
    assert cases.keys() == pinned.keys()
    for case, data in cases.items():
        assert main(["mmi", write_source(data, "pool.json"), "--cap", "9"]) == 0
        captured = capsys.readouterr()
        assert captured.out == pinned[case], case
        assert captured.err == ""


def test_a_wrong_min_cut_fails_the_internal_check(monkeypatch, capsys, write_source, star):
    # Never merging keeps the singletons, whose ratio 3/2 is above the star's
    # mmi 1: a coarsening of the claimed finest minimizer scores below it.
    monkeypatch.setattr(mmi_mod, "_source_side", lambda cap: [True] + [False] * (len(cap) - 1))
    with pytest.raises(InternalCheckError, match="scores below"):
        mmi(star)
    code, out, err = main(["mmi", write_source(_sources.STAR)]), *capsys.readouterr()
    assert code == 4 and out == "" and err.startswith("internal check:")


def test_a_wrong_newton_partition_fails_the_internal_check(monkeypatch, star):
    # A Newton step that returns {01 | 2}, whose ratio 2 is not the value 3/2
    # it stops at.
    monkeypatch.setattr(mmi_mod, "_finest_minimizer", lambda n, edges, p, q: [0b011, 0b100])
    with pytest.raises(InternalCheckError, match="Newton value"):
        mmi(star)
    monkeypatch.undo()
    # Merging everything leaves no split at all.
    monkeypatch.setattr(mmi_mod, "_source_side", lambda cap: [True] * len(cap))
    with pytest.raises(InternalCheckError, match="no split"):
        mmi(star)


def test_a_non_refining_pmf_minimizer_fails_the_internal_check(monkeypatch, capsys,
                                                               write_source):
    # {12 | 3} and {1 | 23} tie, and neither refines the other.
    monkeypatch.setattr(mmi_mod, "_minimize_float",
                        lambda h, n: (0.5, [(0b011, 0b100), (0b001, 0b110)]))
    psrc = parse_source(_sources.hypergraph_as_pmf(_sources.TRIANGLE))
    with pytest.raises(InternalCheckError, match="does not refine a co-minimizer"):
        mmi(psrc)
    path = write_source(_sources.hypergraph_as_pmf(_sources.TRIANGLE))
    code, out, err = main(["mmi", path]), *capsys.readouterr()
    assert code == 4 and out == "" and err.startswith("internal check:")
    # Two minimizers, one refining the other: the finer is the finest.
    monkeypatch.setattr(mmi_mod, "_minimize_float",
                        lambda h, n: (0.5, [(0b011, 0b100), (0b001, 0b010, 0b100)]))
    assert _blocks(mmi(psrc).finest) == [["1"], ["2"], ["3"]]
