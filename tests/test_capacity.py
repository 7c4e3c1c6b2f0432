import functools
import gc
import math
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from skalc import capacity
from skalc.capacity import (
    EDGE_CAP,
    LB_USER_CAP,
    _best_restriction,
    _cut_row,
    alpha_s_lower_bound,
    duality_upper_bound,
    lower_bound_curve,
    pin_curves,
    sandwich,
    witness_at,
)
from skalc.curves import CapacityCurve, check_curve, constant_curve, upper_concave_envelope
from skalc.errors import InternalCheckError, ResourceCapError, ValidationError
from skalc.mmi import iter_partitions, mmi
from skalc.source_model import (
    _hypergraph_table,
    entropy,
    entropy_table,
    format_number,
    gacs_korner,
    parse_source,
    restrict,
)

import _oracle
import _sources
from _benchmark import benchmark_jobs


def test_pin_curves_triangle(triangle):
    curves = pin_curves(triangle)
    assert curves.cap == F(3, 2)
    assert curves.alpha_s == F(3)
    assert curves.r_s == F(3, 2)
    assert curves.compressed.points == ((F(0), F(0)), (F(3), F(3, 2)))
    assert curves.constrained.points == ((F(0), F(0)), (F(3, 2), F(3, 2)))


def test_pin_curves_star(star):
    curves = pin_curves(star)
    assert curves.cap == F(1)
    assert curves.alpha_s == F(2)
    assert curves.compressed.points == ((F(0), F(0)), (F(2), F(1)))
    assert curves.constrained.points == ((F(0), F(0)), (F(1), F(1)))


def test_pin_curves_rejects(example1, intro_pmf):
    with pytest.raises(ValidationError, match="exactly two users"):
        pin_curves(example1)
    with pytest.raises(ValidationError):
        pin_curves(intro_pmf)


def test_pin_curves_two_users():
    # Parallel edges of 1 and 1/2: r_s = 0, so the constrained curve sits at
    # the cap from R = 0 on; the compressed one is min(alpha, cap).
    curves = pin_curves(parse_source(_sources.hg("12", [("e", "12", 1), ("f", "12", F(1, 2))])))
    assert (curves.cap, curves.alpha_s, curves.r_s) == (F(3, 2), F(3, 2), F(0))
    assert curves.compressed.points == ((F(0), F(0)), (F(3, 2), F(3, 2)))
    assert curves.constrained.points == ((F(0), F(3, 2)),)


def test_pin_curves_disconnected_flat():
    src = parse_source(_sources.hg("1234", [("a", "12", 1), ("b", "34", 1)]))
    curves = pin_curves(src)
    assert curves.cap == F(0)
    assert curves.compressed.points == ((F(0), F(0)),)
    assert curves.constrained.points == ((F(0), F(0)),)
    assert curves.alpha_s == F(0)


def _ring(n, w):
    return parse_source(_sources.hg([str(i) for i in range(n)],
                                    [(f"e{i}", [str(i), str((i + 1) % n)], w) for i in range(n)]))


def _clique(n, w):
    return parse_source(_sources.hg([str(i) for i in range(n)],
                                    [(f"e{i}-{j}", [str(i), str(j)], w)
                                     for i in range(n) for j in range(i + 1, n)]))


@pytest.mark.parametrize("n", [9, 30])
def test_pin_curves_past_the_mmi_user_cap(n):
    # Closed forms: a ring of weight-w edges has strength n w / (n - 1), its
    # singletons' ratio, and a clique of them n w / 2.  The curves are
    # min(alpha / (n - 1), cap) and min(R / (n - 2), cap).
    for src, cap in ((_ring(n, F(1, 2)), F(n, 2 * (n - 1))), (_clique(n, F(3)), F(3 * n, 2))):
        curves = pin_curves(src)
        assert curves.cap == cap
        assert curves.alpha_s == (n - 1) * cap and curves.r_s == (n - 2) * cap
        assert curves.compressed.points == ((F(0), F(0)), ((n - 1) * cap, cap))
        assert curves.constrained.points == ((F(0), F(0)), ((n - 2) * cap, cap))


def test_lower_bound_example1(example1):
    res = lower_bound_curve(example1)
    assert res.curve.points == ((F(0), F(0)), (F(1), F(1)), (F(3), F(2)))
    assert set(res.witnesses) == set(res.curve.points)
    w1 = res.witnesses[(F(1), F(1))]
    assert len(w1.components) == 1
    weight, restriction, value, used = w1.components[0]
    assert weight == F(1)
    assert restriction.is_zero_one()
    assert restriction.fraction_for("a") == F(1)
    assert restriction.fraction_for("b") == F(0)
    assert value == F(1) and used == F(1)


def test_lower_bound_witness_mixture(example1):
    res = lower_bound_curve(example1)
    w = witness_at(res, F(2))
    assert w.mixed_value() == F(3, 2)
    assert w.mixed_entropy() <= F(2)
    assert sum(c[0] for c in w.components) == F(1)
    # past saturation the full-source witness is returned
    end = witness_at(res, F(10))
    assert end.mixed_value() == F(2)
    zero = witness_at(res, F(0))
    assert zero.mixed_value() == F(0)


def test_lower_bound_witness_components_verify(example1, star):
    for src in (example1, star):
        res = lower_bound_curve(src)
        for (x, y), w in res.witnesses.items():
            assert w.mixed_value() == y
            assert w.mixed_entropy() <= x
            for _, restriction, value, used in w.components:
                kept = restrict(src, restriction)
                assert entropy(kept, kept.users) == used
                if kept.edge_ids:
                    assert mmi(kept).value == value
                else:
                    assert value == F(0)


def test_lower_bound_witnesses_are_keyed_by_the_breakpoints():
    """One witness per breakpoint, in curve order, each the LP retention that
    reaches the breakpoint's value within its budget."""
    rng = random.Random(23)
    for _ in range(12):
        src = parse_source(_sources.random_hypergraph(rng, n_users=rng.randint(2, 5)))
        res = lower_bound_curve(src)
        assert list(res.witnesses) == list(res.curve.points)
        for (x, y), w in res.witnesses.items():
            ((_, restriction, value, used),) = w.components
            kept = restrict(src, restriction)
            assert value == y and used == entropy(kept, kept.users) <= x
            assert (mmi(kept).value if kept.edge_ids else 0) == y


def test_lower_bound_star_needs_fractions(star):
    res = lower_bound_curve(star)
    assert res.curve.points == ((F(0), F(0)), (F(2), F(1)))
    w = res.witnesses[(F(2), F(1))]
    assert len(w.components) == 1
    _, restriction, value, used = w.components[0]
    assert not restriction.is_zero_one()
    assert restriction.fraction_for("e1") == F(1)
    assert restriction.fraction_for("e2") == F(1, 2)
    assert value == F(1) and used == F(2)


def test_lower_bound_matches_pin_closed_form():
    rng = random.Random(77)
    for _ in range(5):
        src = parse_source(_sources.random_connected_pin(rng, n_users=rng.randint(3, 5)))
        lb = lower_bound_curve(src)
        curves = pin_curves(src)
        assert lb.curve.points == curves.compressed.points


def test_lower_bound_saturates_at_interaction():
    rng = random.Random(13)
    for _ in range(6):
        src = parse_source(_sources.random_hypergraph(rng, n_users=rng.randint(2, 5),
                                                      n_edges=rng.randint(1, 6)))
        lb = lower_bound_curve(src)
        total = entropy(src, src.users)
        value = mmi(src).value
        assert lb.curve.cap() == value
        assert lb.curve.value_at(total) == value
        assert check_curve(lb.curve)


def _cuts(src):
    return [blocks for blocks in iter_partitions(len(src.users)) if len(blocks) > 1]


def test_cut_rows_follow_rgs_order():
    rng = random.Random(11)
    for n in range(2, 7):
        src = parse_source(_sources.random_hypergraph(rng, n_users=n))
        partitions = _cuts(src)
        rows = [_cut_row(src, blocks) for blocks in partitions]
        assert all(type(v) is int for row in rows for v in row)
        assert [row[0] for row in rows] == [src.denominator * (len(b) - 1) for b in partitions]
        unscaled = [tuple(F(-v, row[0]) for v in row[1:]) for row in rows]
        assert unscaled == _oracle.partition_coefficients(src)


def test_separation_table_is_the_restricted_entropy_table():
    # With f = g / q, weights int_w_e * g_e over D * q are the weights of
    # restrict(src, f); the subset-sum pass must give its entropy table.
    rng = random.Random(23)
    for _ in range(40):
        src = parse_source(_sources.random_hypergraph(rng, n_users=rng.randint(2, 6)))
        f = []
        for _ in src.weights:
            den = rng.randint(1, 6)
            f.append(F(rng.choice((0, den, rng.randint(0, den))), den))
        q = math.lcm(*(fe.denominator for fe in f))
        g = [fe.numerator * (q // fe.denominator) for fe in f]
        table = _hypergraph_table(len(src.users), src.edge_masks(),
                                  [w * ge for w, ge in zip(src.int_weights, g)])
        kept = restrict(src, dict(zip(src.edge_ids, f)))
        assert ([F(v, src.denominator * q) for v in table]
                == [F(v, kept.denominator) for v in entropy_table(kept)])


def test_curve_reconstruction_order_and_no_reference_cycles():
    # min(a, (a + 1) / 2, 2): breakpoints at 1 and 3.  Probes go depth
    # first, left part first; cyclic garbage would wait for a full
    # collection and grow a long-running caller's memory.
    def evaluate(a):
        value, slope = min((a, F(1)), ((a + 1) / 2, F(1, 2)), (F(2), F(0)))
        return value, None, slope

    gc.collect()
    gc.disable()
    try:
        store = capacity._reconstruct_curve(evaluate, F(0), F(5))
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert list(store) == [F(0), F(5), F(2), F(1), F(3)]


def test_separation_adds_the_fraction_oracles_cuts(monkeypatch):
    """Same value, retention, slope and LP count as the Fraction loop."""
    solves = Counter()

    def counted(tag, fn):
        def wrapped(*args):
            solves[tag] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(capacity, "simplex_min", counted("int", capacity.simplex_min))
    monkeypatch.setattr(_oracle, "simplex_min", counted("fraction", _oracle.simplex_min))
    rng = random.Random(5)
    sources = [parse_source(d) for d in (_sources.EXAMPLE1, _sources.STAR, _sources.TRIANGLE)]
    sources += [parse_source(_sources.random_hypergraph(rng, n_users=rng.randint(3, 5)))
                for _ in range(4)]
    sources += [parse_source(_sources.random_connected_pin(rng, n_users=6)) for _ in range(4)]
    for src in sources:
        partitions = _cuts(src)
        coeffs = _oracle.partition_coefficients(src)
        sums = [sum(row) for row in coeffs]
        seed = sums.index(min(sums))
        total = src.total_entropy()
        for k in range(9):
            alpha = total * k / 8
            got = _best_restriction(src, partitions, alpha, partitions[seed])
            want = _oracle.best_restriction(coeffs, src.weights, alpha, [seed])
            assert got == want
            assert solves["int"] == solves["fraction"]
    assert solves["int"] > len(sources) * 9


def test_cutting_plane_guard_bounds_the_rounds(monkeypatch):
    src = parse_source(_sources.EXAMPLE1)
    partitions = _cuts(src)
    solves = []
    solve = capacity.simplex_min
    monkeypatch.setattr(capacity, "simplex_min", lambda *args: solves.append(1) or solve(*args))
    # a separation that always reports a violated cut
    monkeypatch.setattr(capacity, "_minimize_exact",
                        lambda h, parts, denom: (F(-1), [partitions[0]]))
    with pytest.raises(InternalCheckError, match="converge"):
        _best_restriction(src, partitions, F(1), partitions[0])
    assert len(solves) == len(partitions) + 2


def _assert_curve_matches_the_oracle(src):
    """lower_bound_curve against _reconstruct_curve driven by the Fraction
    cutting-plane loop over the oracle's rows: same points, same witnesses."""
    coeffs = _oracle.partition_coefficients(src)
    sums = [sum(row) for row in coeffs]
    seed = [sums.index(min(sums))]
    store = capacity._reconstruct_curve(
        lambda a: _oracle.best_restriction(coeffs, src.weights, a, seed),
        F(0), src.total_entropy())
    points = upper_concave_envelope([(a, v) for a, (v, _, _) in store.items()]).points
    got = lower_bound_curve(src)
    assert got.curve.points == points
    assert set(got.witnesses) == set(points)
    for x, y in points:
        f = store[x][1]
        ((weight, restriction, value, used),) = got.witnesses[(x, y)].components
        assert weight == 1 and value == y
        assert restriction.fractions == dict(zip(src.edge_ids, f))
        assert used == sum(w * fe for w, fe in zip(src.weights, f))


def test_curve_matches_the_oracle():
    rng = random.Random(31)
    sources = [parse_source(d) for d in (_sources.EXAMPLE1, _sources.STAR, _sources.TRIANGLE,
                                         _sources.PATH3, _sources.OMNI)]
    sources += [parse_source(_sources.random_hypergraph(rng, n_users=rng.randint(2, 5)))
                for _ in range(8)]
    for src in sources:
        _assert_curve_matches_the_oracle(src)


def test_curve_matches_the_oracle_on_the_benchmark_cycle():
    jobs = benchmark_jobs("budget-curves", cycles=1)
    assert len(jobs) == 9
    for job in jobs:
        _assert_curve_matches_the_oracle(parse_source(job.source))


def test_lower_bound_caps():
    rng = random.Random(2)
    wide = _sources.random_hypergraph(rng, n_users=3, n_edges=EDGE_CAP + 1)
    with pytest.raises(ResourceCapError):
        lower_bound_curve(parse_source(wide))
    tall = _sources.random_connected_pin(rng, n_users=LB_USER_CAP + 1)
    with pytest.raises(ResourceCapError):
        lower_bound_curve(parse_source(tall))


def test_gk_floor(example1, triangle, monkeypatch):
    # Under a decremental curve of slope 1/4, sandwich's lower bound is the
    # common-part floor min(alpha, J_GK).  EXAMPLE1's users share one bit
    # outright, the triangle's none.
    assert gacs_korner(example1) == F(1) and gacs_korner(triangle) == F(0)
    slow = CapacityCurve(((F(0), F(0)), (F(8), F(2))))
    monkeypatch.setattr(capacity, "lower_bound_curve",
                        lambda source: capacity.LowerBoundResult(slow, {}))
    grid = [F(1, 2), F(3), F(8)]
    res = sandwich(example1, grid)
    assert res.gk == F(1)
    assert [row.lower for row in res.rows] == [F(1, 2), F(1), F(2)]
    assert [row.lower for row in res.rows] == [max(slow.value_at(a), min(a, res.gk)) for a in grid]


UPPER = CapacityCurve(((F(0), F(1)), (F(1), F(2))))


def _random_concave_curve(rng):
    """An exact concave curve from x = 0: a single point, or up to four
    pieces of non-increasing slopes (a first one up to 12, flat ones
    included) from an intercept that may be 0."""
    x, y = F(0), rng.choice((F(0), F(rng.randint(0, 8), rng.randint(1, 3))))
    points = [(x, y)]
    slopes = sorted((F(rng.randint(0, 12), rng.randint(1, 4)) for _ in range(rng.randint(0, 4))),
                    reverse=True)
    for slope in slopes:
        step = F(rng.randint(1, 8), rng.randint(1, 3))
        x, y = x + step, y + slope * step
        points.append((x, y))
    return CapacityCurve(tuple(points))


def _closed_form_cases(rng):
    """(curve, caps, alphas): random curves with caps at 0, at breakpoint
    heights, at and above the top, and budgets at 0, breakpoints and
    between; the one-curve cases come first."""
    yield UPPER, [F(2)], [F(0), F(1, 4), F(1), F(5, 4), F(7, 4), F(3), F(4), F(100)]
    for _ in range(300):
        curve = _random_concave_curve(rng)
        xs = [x for x, _ in curve.points]
        ys = [y for _, y in curve.points]
        top = curve.cap()
        caps = {F(0), rng.choice(ys), top, top + 1, top * F(rng.randint(1, 9), 10)}
        alphas = {F(0), *(x + c for x in xs for c in (0, rng.choice(ys))),
                  *(F(rng.randint(1, 80), rng.randint(1, 4)) for _ in range(4))}
        yield curve, sorted(caps), sorted(alphas)


def _float_copy(curve):
    return CapacityCurve(tuple((float(x), float(y)) for x, y in curve.points))


def _search(search, curve, exact, *args):
    """The search's value, or, where it divides a piece's rise by a float
    gap that rounded to 0 (a breakpoint candidate within an ulp of
    min(alpha, cap)), the float of its value on the exact curve."""
    try:
        return search(curve, *args)
    except ZeroDivisionError:
        assert not curve.exact
        return float(search(exact, *args))


def test_closed_forms_match_the_breakpoint_search():
    # duality_upper_bound and alpha_s_lower_bound against the searches they
    # replaced: equal values and types on exact curves; on the float copy
    # the same types, values to 1e-12 relative and the same printed text.
    assert duality_upper_bound(UPPER, F(2), F(5, 4)) == F(9, 8)
    assert duality_upper_bound(UPPER, F(2), F(0)) == F(0)
    assert duality_upper_bound(UPPER, F(2), F(3)) == F(2)
    assert duality_upper_bound(UPPER, F(2), F(100)) == F(2)
    # A float curve may fall by up to 1e-9, here along a piece of slope -1.
    dip = CapacityCurve(((0.0, 1.0), (2.0 ** -30, 1 - 2.0 ** -30)))
    assert duality_upper_bound(dip, F(2), F(2)) == _oracle.duality_upper_bound(dip, F(2), F(2))
    evaluations = Counter()
    for curve, caps, alphas in _closed_form_cases(random.Random(26)):
        for cap in caps:
            for upper in (curve, _float_copy(curve)):
                pairs = [(alpha_s_lower_bound(upper, cap), _oracle.alpha_s_lower_bound(upper, cap))]
                pairs += [(duality_upper_bound(upper, cap, alpha),
                           _search(_oracle.duality_upper_bound, upper, curve, cap, alpha))
                          for alpha in alphas]
                for got, want in pairs:
                    assert type(got) is type(want), (upper, cap, got, want)
                    if upper.exact or want is None:
                        assert got == want, (upper, cap)
                    else:
                        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12), (upper, cap)
                        assert format_number(got) == format_number(want), (upper, cap)
                    evaluations[upper.exact] += 1
                for alpha in alphas:
                    tol = 0 if upper.exact else 1e-12 * (1 + alpha)
                    assert -tol <= duality_upper_bound(upper, cap, alpha) <= min(alpha, cap) + tol
    assert min(evaluations.values()) > 10_000


def test_alpha_s_lower_bound():
    assert alpha_s_lower_bound(UPPER, F(2)) == F(3)
    assert alpha_s_lower_bound(UPPER, F(5, 2)) is None


def test_sandwich_example1_with_trusted_upper(example1):
    grid = [F(k, 4) for k in range(17)]
    res = sandwich(example1, grid, cs_upper=UPPER)
    assert len(res.rows) == 17
    assert res.cap == F(2)
    assert res.gk == F(1)
    assert res.inferred_alpha_s == F(3)
    for row in res.rows:
        expected = min(row.alpha, (1 + row.alpha) / 2, F(2))
        assert row.lower == expected
        assert row.upper == expected
        assert row.tight


def test_sandwich_example1_plain(example1):
    res = sandwich(example1, [F(1, 2), F(2), F(3)])
    by_alpha = {row.alpha: row for row in res.rows}
    assert by_alpha[F(1, 2)].lower == F(1, 2)
    assert by_alpha[F(1, 2)].upper == F(1, 2)
    assert by_alpha[F(1, 2)].tight
    assert by_alpha[F(2)].lower == F(3, 2)
    assert by_alpha[F(2)].upper == F(2)
    assert not by_alpha[F(2)].tight
    assert by_alpha[F(3)].lower == F(2)
    assert by_alpha[F(3)].upper == F(2)
    assert by_alpha[F(3)].tight


def test_sandwich_cap_is_bell_mmi():
    # sandwich reads its cap and saturation budget off the lower-bound curve.
    rng = random.Random(31)
    sources = [parse_source(getattr(_sources, name))
               for name in ("EXAMPLE1", "TRIANGLE", "STAR", "PATH3", "OMNI")]
    sources += [parse_source(_sources.random_hypergraph(rng, n_users=rng.randint(2, 6),
                                                        n_edges=rng.randint(1, 8)))
                for _ in range(12)]
    sources += [parse_source(_sources.random_connected_pin(rng, n_users=rng.randint(3, 6)))
                for _ in range(12)]
    for src in sources:
        res = sandwich(src, [F(0), F(1)])
        assert res.cap == mmi(src).value
        assert res.inferred_alpha_s == lower_bound_curve(src).curve.saturation_x()


def _disconnected_pin(rng):
    """Two connected pairwise parts side by side, so the strength is 0."""
    left = _sources.random_connected_pin(rng, n_users=rng.randint(2, 4))
    right = _sources.random_connected_pin(rng, n_users=rng.randint(2, 3))
    shift = len(left["users"])

    def moved(users):
        return [str(int(u) + shift) for u in users]

    edges = left["edges"] + [{**e, "id": "r" + e["id"], "on": moved(e["on"])}
                             for e in right["edges"]]
    return {**left, "users": left["users"] + moved(right["users"]), "edges": edges}


def _no_lp(source):
    raise AssertionError("pairwise sources on three or more users take the closed form")


def test_sandwich_reads_pairwise_sources_off_the_closed_form(monkeypatch):
    # The pairwise sources of the seed-1 pool cycle, 100 random ones on 3-7
    # users (rational weights, parallel pairs), disconnected draws and
    # two-user ones: the closed form gives the rows, cap, floor and
    # saturation budget the LP gives, with and without the exact constrained
    # curve as upper bound.
    rng = random.Random(24)
    sources = [parse_source(job.source) for job in benchmark_jobs("budget-curves", cycles=1)
               if "pin_cap" in job.params]
    sources += [parse_source(_sources.random_connected_pin(rng, n_users=rng.randint(3, 7)))
                for _ in range(100)]
    sources += [parse_source(_disconnected_pin(rng)) for _ in range(10)]
    sources += [parse_source(_sources.OMNI)]
    sources += [parse_source(_sources.random_connected_pin(rng, n_users=2)) for _ in range(10)]
    assert len(sources) == 127
    assert sum(len(src.users) == 2 for src in sources) == 11
    assert any(len(set(src.incidence)) < len(src.incidence) for src in sources)
    assert sum(pin_curves(src).cap == 0 for src in sources) == 10

    cases = [(src, sorted({F(k, 3) for k in range(19)} | {src.total_entropy()}), upper)
             for src in sources for upper in (None, pin_curves(src).constrained)]
    with monkeypatch.context() as mp:
        mp.setattr(capacity, "is_pin", lambda source: False)
        mp.setattr(capacity, "lower_bound_curve", functools.cache(lower_bound_curve))
        via_lp = [sandwich(*case) for case in cases]
    monkeypatch.setattr(capacity, "lower_bound_curve", _no_lp)
    assert [sandwich(*case) for case in cases] == via_lp


def test_sandwich_keeps_the_lp_on_hypergraphs(example1, monkeypatch):
    calls = []
    real = capacity.lower_bound_curve
    monkeypatch.setattr(capacity, "lower_bound_curve",
                        lambda source: calls.append(source) or real(source))
    # Two users, but the private edge makes the source no longer pairwise.
    lopsided = parse_source(_sources.hg("12", [("all", "12", 2), ("own", "1", 1)]))
    res = sandwich(lopsided, [F(1), F(3)])
    assert (res.cap, res.inferred_alpha_s) == (F(2), F(2))
    assert [row.lower for row in res.rows] == [F(1), F(2)]
    sandwich(example1, [F(1)])
    assert calls == [lopsided, example1]


def test_sandwich_crossed_bounds_detected(example1, monkeypatch):
    # A supplied upper curve below the proved lower bound is bad input; a
    # crossing of the library's own bounds is a bug.
    with pytest.raises(ValidationError, match="cs_upper curve"):
        sandwich(example1, [F(1)], cs_upper=constant_curve(F(0)))
    monkeypatch.setattr(capacity, "gacs_korner", lambda source: F(100))
    with pytest.raises(InternalCheckError):
        sandwich(example1, [F(3)])


def test_sandwich_rejects_bad_grid(example1, monkeypatch):
    def no_curve(source):
        raise AssertionError("the grid is checked before the curve is built")

    monkeypatch.setattr(capacity, "lower_bound_curve", no_curve)
    with pytest.raises(ValidationError):
        sandwich(example1, [F(-1)])
    with pytest.raises(ValidationError):
        sandwich(example1, [F(1), F(2), F(-1, 2)])
    with pytest.raises(ValidationError):
        sandwich(example1, [])
