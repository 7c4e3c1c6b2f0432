import itertools
import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from skalc import omniscience
from skalc.cli import main
from skalc.errors import InternalCheckError
from skalc.lp import LpSolution
from skalc.mmi import mmi
from skalc.omniscience import RcoResult, rco, unconstrained_capacity
from skalc.source_model import conditional_entropy, entropy, parse_source

import _sources
from _benchmark import benchmark_jobs


def _assert_feasible(source, rates):
    """Every proper user subset must carry at least its conditional entropy."""
    users = list(source.users)
    total = sum(rates.values())
    for r in range(1, len(users)):
        for group in itertools.combinations(users, r):
            need = conditional_entropy(source, group)
            got = sum(rates[u] for u in group)
            assert got >= need, (group, got, need)
    return total


def test_example1_golden(example1):
    result = rco(example1)
    assert result.value == F(1)
    rates = result.witness.rates
    assert set(rates) == {"1", "2", "3"}
    assert _assert_feasible(example1, rates) == F(1)
    # the hand-checkable optimum: user 2 relays one bit
    hand = {"1": F(0), "2": F(1), "3": F(0)}
    assert _assert_feasible(example1, hand) == result.value


def test_triangle_golden(triangle):
    result = rco(triangle)
    assert result.value == F(3, 2)
    assert _assert_feasible(triangle, result.witness.rates) == F(3, 2)


def test_rates_nonnegative(example1, triangle):
    for src in (example1, triangle):
        for r in rco(src).witness.rates.values():
            assert r >= 0


def test_unconstrained_capacity(example1, triangle):
    assert unconstrained_capacity(example1) == F(2)
    assert unconstrained_capacity(triangle) == F(3, 2)


@pytest.mark.parametrize("n", [9, 10, 11, 12])
def test_unconstrained_capacity_serves_up_to_the_omniscience_cap(n):
    # An n-user ring of unit pairs under one bit all users share: the shared
    # bit adds 1 to every partition's information and the ring its strength
    # n / (n - 1), so mmi = H(V) - rco with H(V) = n + 1.  Then a random
    # n-user draw with n + 3 edges.
    users = [str(i) for i in range(n)]
    ring = parse_source(_sources.hg(users, [("all", users, 1)] + [
        (f"e{i}", [users[i], users[(i + 1) % n]], 1) for i in range(n)]))
    assert unconstrained_capacity(ring) == 1 + F(n, n - 1)
    assert rco(ring).value == n - F(n, n - 1)
    drawn = parse_source(_sources.random_hypergraph(random.Random(n), n_users=n, n_edges=n + 3))
    value = unconstrained_capacity(drawn)
    assert value == mmi(drawn, cap=n).value
    assert value == entropy(drawn, drawn.users) - rco(drawn).value


def test_capacity_complements_discussion():
    rng = random.Random(41)
    for _ in range(30):
        src = parse_source(_sources.random_hypergraph(rng, n_users=rng.randint(2, 5)))
        total = entropy(src, src.users)
        assert rco(src).value + mmi(src).value == total


def test_covering_edge_changes_nothing():
    rng = random.Random(8)
    for _ in range(6):
        data = _sources.random_hypergraph(rng, n_users=rng.randint(2, 4))
        base = rco(parse_source(data)).value
        data["edges"].append({"id": "omni", "on": list(data["users"]), "bits": "7/3"})
        grown = rco(parse_source(data)).value
        assert grown == base


def test_two_user_pmf_path(intro_pmf):
    result = rco(intro_pmf)
    # r1 >= H(Z1|Z2), r2 >= H(Z2|Z1), both binding at the optimum
    assert abs(result.value - 2.0) < 1e-9
    assert abs(unconstrained_capacity(intro_pmf) - 1.0) < 1e-9


def _doctored(real, doctor):
    """simplex_min with its solution passed through ``doctor``."""
    return lambda *args: doctor(real(*args))


@pytest.mark.parametrize("doctor, message", [
    # The dual of user 0's row turned positive: a rate of -1.
    (lambda sol: LpSolution(sol.value, sol.x, (F(1),) + sol.duals[1:]), "negative"),
    # The LP value moved by one unit; the rates still add up to the old one.
    (lambda sol: LpSolution(sol.value - 1, sol.x, sol.duals), "total"),
    # Every rate and the value zeroed: the total matches, a subset goes short.
    (lambda sol: LpSolution(F(0), sol.x, (F(0),) * len(sol.duals)), "violates subset"),
])
def test_certificate_rejects_doctored_duals(monkeypatch, triangle, intro_pmf, doctor, message):
    monkeypatch.setattr(omniscience, "simplex_min", _doctored(omniscience.simplex_min, doctor))
    for src in (triangle, intro_pmf):
        with pytest.raises(InternalCheckError, match=message):
            rco(src)


@pytest.mark.parametrize("fixture, shift", [("triangle", F(1, 7)), ("intro_pmf", 1e-6)])
def test_unconstrained_capacity_duality_gap_fires(monkeypatch, request, fixture, shift):
    src = request.getfixturevalue(fixture)
    real = omniscience.rco

    def off(shifted):
        def shifted_rco(source):
            result = real(source)
            return RcoResult(result.value + shifted, result.witness)
        return shifted_rco

    if fixture == "intro_pmf":
        # Float noise inside the 1e-9 tolerance passes.
        monkeypatch.setattr(omniscience, "rco", off(1e-12))
        assert abs(unconstrained_capacity(src) - 1.0) < 1e-9
    monkeypatch.setattr(omniscience, "rco", off(shift))
    with pytest.raises(InternalCheckError, match="duality gap"):
        unconstrained_capacity(src)


def test_rco_stdout_on_the_benchmark_pools_is_pinned(capsys, write_source):
    pinned = json.loads((Path(__file__).parent / "rco_exact_partition_stdout.json").read_text(
        encoding="utf-8"))
    cases = {f"{seed}/{job.group}": job.source
             for seed in (1, 2) for job in benchmark_jobs("exact-partition", seed=seed)
             if job.kind == "rco"}
    assert cases.keys() == pinned.keys()
    for case, data in cases.items():
        assert main(["rco", write_source(data, "pool.json")]) == 0
        captured = capsys.readouterr()
        assert captured.out == pinned[case], case
        assert captured.err == ""
