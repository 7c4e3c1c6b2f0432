import random
from fractions import Fraction as F

import pytest

from skalc import capacity, omniscience
from skalc.errors import InternalCheckError, ValidationError
from skalc.lp import simplex_min
from skalc.source_model import HypergraphicalSource, parse_source

import _oracle
import _sources


def test_known_optimum_exact():
    # min -2x - 3y  s.t.  x + y <= 4,  x <= 2
    sol = simplex_min([F(-2), F(-3)], [[F(1), F(1)], [F(1), F(0)]], [F(4), F(2)])
    assert sol.value == F(-12)
    assert sol.x == (F(0), F(4))
    assert sol.duals == (F(-3), F(0))


def test_duals_are_rhs_sensitivities():
    rows = [[F(1), F(1)], [F(1), F(0)]]
    base = simplex_min([F(-2), F(-3)], rows, [F(4), F(2)])
    bumped = simplex_min([F(-2), F(-3)], rows, [F(4) + F(1, 16), F(2)])
    assert bumped.value - base.value == base.duals[0] * F(1, 16)


def test_degenerate_duplicate_rows():
    sol = simplex_min([F(-1)], [[F(1)], [F(1)]], [F(1), F(1)])
    assert sol.value == F(-1)
    assert sol.x == (F(1),)
    assert sol.duals == (F(-1), F(0))


def test_solution_invariants_random():
    import random
    rng = random.Random(9)
    for _ in range(25):
        n = rng.randint(1, 4)
        m = rng.randint(1, 5)
        c = [F(rng.randint(-4, 4)) for _ in range(n)]
        rows = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
        rhs = [F(rng.randint(0, 6)) for _ in range(m)]
        # keep it bounded: add box rows x_i <= 5
        for i in range(n):
            rows.append([F(1) if j == i else F(0) for j in range(n)])
            rhs.append(F(5))
        sol = simplex_min(c, rows, rhs)
        assert sol.value == sum(ci * xi for ci, xi in zip(c, sol.x))
        for row, b, dual in zip(rows, rhs, sol.duals):
            slack = b - sum(a * xi for a, xi in zip(row, sol.x))
            assert slack >= 0
            assert dual <= 0
            # complementary slackness
            assert dual == 0 or slack == 0
        assert all(xi >= 0 for xi in sol.x)


def test_unbounded_detected():
    with pytest.raises(InternalCheckError):
        simplex_min([F(-1)], [[F(-1)]], [F(0)])


def test_validation():
    with pytest.raises(ValidationError):
        simplex_min([F(1)], [[F(1), F(2)]], [F(1)])
    with pytest.raises(ValidationError):
        simplex_min([F(1)], [[F(1)]], [F(-1)])


def _assert_same_as_oracle(c, rows, rhs):
    """The integer simplex returns the Fraction oracle's solution, or its error."""
    try:
        want = _oracle.simplex_min(c, rows, rhs)
    except InternalCheckError as exc:
        with pytest.raises(InternalCheckError) as info:
            simplex_min(c, rows, rhs)
        assert str(info.value) == str(exc)
        return None
    got = simplex_min(c, rows, rhs)
    assert got == want
    assert [type(v) for v in (got.value, *got.x, *got.duals)] == \
        [type(v) for v in (want.value, *want.x, *want.duals)]
    return got


def test_matches_fraction_oracle_on_random_lps():
    rng = random.Random(2024)

    def rational():
        return F(rng.randint(-9, 9), rng.randint(1, 6))

    unbounded = 0
    for _ in range(1000):
        n = rng.randint(1, 6)
        m = rng.randint(1, 6)
        c = [rational() for _ in range(n)]
        rows = [[rational() if rng.random() < 0.7 else F(0) for _ in range(n)]
                for _ in range(m)]
        rhs = [abs(rational()) for _ in range(m)]
        for i in range(n):
            if rng.random() < 0.8:
                rows.append([F(1) if j == i else F(0) for j in range(n)])
                rhs.append(F(rng.randint(0, 5), rng.randint(1, 3)))
        if _assert_same_as_oracle(c, rows, rhs) is None:
            unbounded += 1
    assert 0 < unbounded < 1000


@pytest.mark.parametrize("name", ["EXAMPLE1", "TRIANGLE", "STAR", "PATH3", "OMNI",
                                  "INTRO_PMF", "BIT_PMF", "HALF_PMF"])
def test_matches_fraction_oracle_on_library_lps(monkeypatch, name):
    """Every LP that rco and lower_bound_curve build on the fixtures."""
    calls = []

    def checked(c, rows, rhs):
        calls.append(len(rows))
        assert all(type(v) in (int, F) for v in (*c, *rhs, *(a for row in rows for a in row)))
        return _assert_same_as_oracle(c, rows, rhs)

    monkeypatch.setattr(capacity, "simplex_min", checked)
    monkeypatch.setattr(omniscience, "simplex_min", checked)
    data = getattr(_sources, name)
    src = parse_source(data)
    omniscience.rco(src)
    if isinstance(src, HypergraphicalSource):
        capacity.lower_bound_curve(src)
        omniscience.rco(parse_source(_sources.hypergraph_as_pmf(data)))
    assert calls
