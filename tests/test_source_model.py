import itertools
import random
from fractions import Fraction as F

import pytest

from skalc.errors import ResourceCapError, ValidationError
from skalc.source_model import (
    EdgeRestriction,
    HypergraphicalSource,
    JointPMF,
    PMF_SUPPORT_CAP,
    conditional_entropy,
    entropy,
    format_number,
    gacs_korner,
    is_pin,
    load_source,
    parse_rational,
    parse_source,
    restrict,
)

import _sources


def test_parse_rational_accepts_ints_and_strings():
    assert parse_rational(3) == F(3)
    assert parse_rational("5/4") == F(5, 4)
    assert parse_rational(" 7 ") == F(7)


@pytest.mark.parametrize("bad", [True, "1/0", "abc", 1.5, None])
def test_parse_rational_rejects(bad):
    with pytest.raises(ValidationError):
        parse_rational(bad)


def test_format_number():
    assert format_number(F(3, 2)) == "3/2"
    assert format_number(F(4)) == "4"
    assert format_number(2) == "2"
    assert format_number(0.125) == "0.125"
    assert format_number(1 / 3) == "0.333333333333"


def test_parse_hypergraph_round_trip(example1):
    assert example1.users == ("1", "2", "3")
    assert example1.edge_ids == ("a", "b", "c")
    assert example1.weights == (F(1), F(1), F(1))
    assert example1.incidence[0] == frozenset({0, 1, 2})
    assert example1.kind == "hypergraph"


@pytest.mark.parametrize("mutate, needle", [
    (lambda d: d["users"].append("1"), "duplicate"),
    (lambda d: d["users"].append("4"), "isolated"),
    (lambda d: d["edges"][0].update(weight=1), "unknown edge keys"),
    (lambda d: d["edges"][0].update(bits=0), "positive weight"),
    (lambda d: d["edges"][0].update(bits="-1/2"), "positive weight"),
    (lambda d: d["edges"][0].update(on=[]), "non-empty"),
    (lambda d: d["edges"][0].update(on=["9"]), "unknown user"),
    (lambda d: d["edges"][1].update(id="a"), "duplicate edge"),
    (lambda d: d.update(kind="graph"), "unknown source kind"),
])
def test_parse_hypergraph_rejects(mutate, needle):
    data = {"kind": "hypergraph", "users": ["1", "2", "3"],
            "edges": [{"id": "a", "on": ["1", "2", "3"], "bits": 1},
                      {"id": "b", "on": ["1", "2"], "bits": 1}]}
    mutate(data)
    with pytest.raises(ValidationError, match=needle):
        parse_source(data)


def test_single_user_source_rejected():
    with pytest.raises(ValidationError):
        parse_source(_sources.hg("1", [("a", "1", 1)]))


def test_parse_pmf_round_trip(intro_pmf):
    assert intro_pmf.kind == "pmf"
    assert intro_pmf.alphabets == (4, 4)
    assert len(intro_pmf.outcomes) == 8
    assert all(abs(p - 0.125) < 1e-15 for p in intro_pmf.probs)


def test_parse_pmf_drops_zero_rows():
    src = parse_source({"kind": "pmf", "users": ["1", "2"], "alphabets": [2, 2],
                        "table": [[0, 0, 0.5], [1, 1, 0.5], [0, 1, 0.0]]})
    assert len(src.outcomes) == 2


@pytest.mark.parametrize("table, needle", [
    ([[0, 0, 0.5]], "sum"),
    ([[0, 0.5]], "symbol per user"),
    ([[0, 0, 0.5], [0, 0, 0.5]], "duplicate outcome"),
    ([[0, 2, 1.0]], "outside alphabet"),
    ([[0, 0, -0.25], [1, 1, 1.25]], "nonnegative"),
])
def test_parse_pmf_rejects(table, needle):
    with pytest.raises(ValidationError, match=needle):
        parse_source({"kind": "pmf", "users": ["1", "2"], "alphabets": [2, 2],
                      "table": table})


def test_pmf_support_cap_enforced():
    n = PMF_SUPPORT_CAP + 1
    outcomes = tuple((i // 1024, i % 1024) for i in range(n))
    with pytest.raises(ResourceCapError):
        JointPMF(("1", "2"), (1024, 1024), outcomes, (1.0 / n,) * n)


def test_load_source_round_trip(tmp_path, write_source):
    path = write_source(_sources.TRIANGLE)
    src = load_source(path)
    assert src.edge_ids == ("ab", "ac", "bc")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ValidationError):
        load_source(bad)
    with pytest.raises(ValidationError):
        load_source(tmp_path / "missing.json")


def test_entropy_example1_exact(example1):
    assert entropy(example1, ["1"]) == F(2)
    assert entropy(example1, ["2"]) == F(3)
    assert entropy(example1, ["3"]) == F(2)
    assert entropy(example1, ["1", "3"]) == F(3)
    assert entropy(example1, ["1", "2", "3"]) == F(3)
    assert entropy(example1, []) == F(0)
    assert isinstance(entropy(example1, ["1"]), F)


def test_conditional_entropy_example1(example1):
    # only edges seen by nobody outside the group survive conditioning
    assert conditional_entropy(example1, ["2"]) == F(0)
    assert conditional_entropy(example1, ["1", "2"]) == F(1)
    assert conditional_entropy(example1, ["1", "2", "3"]) == F(3)


def test_entropy_monotone_and_submodular():
    rng = random.Random(11)
    for _ in range(10):
        src = parse_source(_sources.random_hypergraph(rng))
        users = list(src.users)
        subsets = []
        for r in range(len(users) + 1):
            subsets.extend(itertools.combinations(users, r))
        for a in subsets:
            for b in subsets:
                sa, sb = set(a), set(b)
                ha, hb = entropy(src, sa), entropy(src, sb)
                if sa <= sb:
                    assert ha <= hb
                union = entropy(src, sa | sb)
                inter = entropy(src, sa & sb)
                assert union + inter <= ha + hb


def test_pmf_entropy_matches_hypergraph():
    rng = random.Random(5)
    for _ in range(6):
        data = _sources.random_hypergraph(rng, n_users=rng.randint(2, 4),
                                          n_edges=rng.randint(1, 3),
                                          integer_weights=True)
        total = sum(int(e["bits"]) for e in data["edges"])
        if total > 6:
            continue
        hsrc = parse_source(data)
        psrc = parse_source(_sources.hypergraph_as_pmf(data))
        for r in range(1, len(hsrc.users) + 1):
            for group in itertools.combinations(hsrc.users, r):
                assert abs(float(entropy(hsrc, group)) - entropy(psrc, group)) < 1e-9
        assert abs(float(gacs_korner(hsrc)) - gacs_korner(psrc)) < 1e-9


def test_is_pin(triangle, example1, intro_pmf):
    assert is_pin(triangle)
    assert not is_pin(example1)
    # A pmf has no edges, pairwise or not.
    assert not is_pin(intro_pmf)


def test_gacs_korner_hypergraph(example1, triangle):
    assert gacs_korner(example1) == F(1)
    assert gacs_korner(triangle) == F(0)


def test_gacs_korner_pmf(intro_pmf, bit_pmf):
    assert gacs_korner(intro_pmf) == 0.0
    assert abs(gacs_korner(bit_pmf) - 1.0) < 1e-12
    # two shared bits, one private: common part is exactly the shared pair
    src = parse_source(_sources.hypergraph_as_pmf(
        _sources.hg("12", [("s", "12", 2), ("p", "1", 1)])))
    assert abs(gacs_korner(src) - 2.0) < 1e-9


def test_gacs_korner_at_most_any_user():
    rng = random.Random(23)
    for _ in range(10):
        src = parse_source(_sources.random_hypergraph(rng))
        gk = gacs_korner(src)
        for u in src.users:
            assert gk <= entropy(src, [u])


def test_restrict_identity_and_scaling(example1):
    same = restrict(example1, {})
    assert same.weights == example1.weights
    ones = restrict(example1, EdgeRestriction({"a": F(1), "b": F(1), "c": F(1)}))
    assert ones.weights == example1.weights
    half = restrict(example1, {"b": F(1, 2)})
    assert entropy(half, ["1", "2", "3"]) == F(5, 2)


def test_restrict_drops_zero_edges(example1):
    cut = restrict(example1, {"a": F(1), "b": F(1), "c": F(0)})
    assert cut.edge_ids == ("a", "b")
    assert entropy(cut, ["1", "2", "3"]) == F(2)
    # user 3 keeps edge a, so the source stays valid
    assert entropy(cut, ["3"]) == F(1)


def test_restrict_validation(example1, intro_pmf):
    with pytest.raises(ValidationError):
        restrict(example1, {"zzz": F(1)})
    with pytest.raises(ValidationError):
        restrict(example1, {"a": F(3, 2)})
    with pytest.raises(ValidationError):
        restrict(intro_pmf, {})


def test_edge_restriction_helpers():
    er = EdgeRestriction({"a": F(1, 2), "b": F(1)})
    assert er.fraction_for("a") == F(1, 2)
    assert er.fraction_for("unlisted") == F(1)
    assert not er.is_zero_one()
    assert EdgeRestriction({"a": F(0), "b": F(1)}).is_zero_one()


def test_triangle_half_restriction(triangle):
    halved = restrict(triangle, {e: F(1, 2) for e in triangle.edge_ids})
    assert entropy(halved, triangle.users) == F(3, 2)
