"""End-to-end acceptance checks.

Each test covers one shipping criterion, prints a single PASS/FAIL line, and
enforces its wall-clock budget.  Tolerances are pinned here and nowhere else:
exact rational equality for the combinatorial solvers, 1e-3 for the iterative
two-user solver against an exhaustive quantized reference, 1e-6 where a
closed form is known, 5e-3 for the one-way duality residual.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

import pytest

from skalc.capacity import (
    alpha_s_lower_bound,
    lower_bound_curve,
    pin_curves,
    sandwich,
)
from skalc.curves import CapacityCurve, check_curve, constant_curve, upper_concave_envelope
from skalc.mmi import mmi
from skalc.omniscience import rco
from skalc.protocol_sim import (
    BitSourceInstance,
    LinearScheme,
    random_binning_omniscience,
    tree_packing_scheme,
    verify,
)
from skalc.source_model import conditional_entropy, entropy, gacs_korner, parse_source
from skalc.two_user import (
    compressed_curve_one_sided,
    constrained_curve_one_way,
    duality_check,
    min_sufficient_statistic,
    mutual_information,
    one_way_complexity,
    pmf_matrix,
    run_sweep,
)

import _exhaustive
import _oracle
import _sources


@contextmanager
def criterion(num: int, budget: float, label: str):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {num} ({label}): FAIL after {time.perf_counter() - start:.2f}s")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget, f"criterion {num} blew its {budget}s budget: {elapsed:.2f}s"
    print(f"criterion {num} ({label}): PASS in {elapsed:.2f}s (budget {budget}s)")


def test_criterion_1_worked_example_golden(example1):
    with criterion(1, 1.0, "worked example, exact golden values"):
        result = mmi(example1)
        assert result.value == F(2)
        assert sorted(sorted(b) for b in result.finest) == [["1"], ["2"], ["3"]]

        co = rco(example1)
        assert co.value == F(1)
        hand = {"1": F(0), "2": F(1), "3": F(0)}
        for r in range(1, 3):
            for group in itertools.combinations(example1.users, r):
                assert sum(hand[u] for u in group) >= conditional_entropy(example1, group)
        assert sum(hand.values()) == co.value

        assert gacs_korner(example1) == F(1)

        upper = CapacityCurve(((F(0), F(1)), (F(1), F(2))))
        grid = [F(k, 4) for k in range(17)]
        res = sandwich(example1, grid, cs_upper=upper)
        for row in res.rows:
            expected = min(row.alpha, (1 + row.alpha) / 2, F(2))
            assert row.lower == expected == row.upper
            assert row.tight
        assert res.inferred_alpha_s == F(3)
        assert alpha_s_lower_bound(upper, F(2)) == F(3)


def test_criterion_2_pairwise_closed_forms():
    with criterion(2, 5.0, "pairwise sources match closed forms exactly"):
        rng = random.Random(20240817)
        for trial in range(25):
            n = rng.randint(3, 6)
            src = parse_source(_sources.random_connected_pin(rng, n_users=n))
            curves = pin_curves(src)
            cap = mmi(src).value
            assert curves.cap == cap
            assert curves.alpha_s == (n - 1) * cap
            assert curves.r_s == (n - 2) * cap
            lb = lower_bound_curve(src)
            assert lb.curve.points == curves.compressed.points
            if cap > 0:
                assert curves.compressed.points == ((F(0), F(0)), ((n - 1) * cap, cap))
                assert curves.constrained.points == ((F(0), F(0)), ((n - 2) * cap, cap))
            for k in range(5):
                alpha = F(k) * curves.alpha_s / 4 if curves.alpha_s else F(k)
                want = min(alpha / (n - 1), cap)
                assert curves.compressed.value_at(alpha) == want


def test_criterion_3_discussion_complements_interaction():
    with criterion(3, 10.0, "omniscience rate + interaction = total entropy"):
        rng = random.Random(1823)
        for trial in range(100):
            src = parse_source(_sources.random_hypergraph(
                rng, n_users=rng.randint(2, 6), n_edges=rng.randint(1, 10)))
            assert rco(src).value + mmi(src).value == entropy(src, src.users)


def test_criterion_4_protocols(example1, triangle):
    with criterion(4, 10.0, "finite schemes verify"):
        inst = BitSourceInstance(example1, 1)
        hand = LinearScheme(3, ((0b110, "2"),), (0b001, 0b010))
        assert verify(inst, hand).ok

        for n in (2, 4, 8):
            packed = tree_packing_scheme(triangle, n)
            assert len(packed.trees) == (3 * n) // 2
            report = verify(packed.instance, packed.scheme)
            assert report.ok
            assert report.key_bits == (3 * n) // 2

        binned = random_binning_omniscience(example1, 16, seed=0)
        assert binned.achieved
        report = verify(binned.instance, binned.scheme)
        assert report.ok
        assert report.key_bits >= 2 * 16 - 16


def test_criterion_5_exhaustive_model_check(example1, triangle):
    with criterion(5, 30.0, "exhaustive replay agrees with verify"):
        emitted = [
            (BitSourceInstance(example1, 1),
             LinearScheme(3, ((0b110, "2"),), (0b001, 0b010))),
        ]
        for n in (2, 4):
            packed = tree_packing_scheme(triangle, n)
            emitted.append((packed.instance, packed.scheme))
        for src, n in ((triangle, 3), (example1, 4), (example1, 5)):
            binned = random_binning_omniscience(src, n, seed=0)
            emitted.append((binned.instance, binned.scheme))
        for inst, scheme in emitted:
            assert inst.total_bits <= 16
            report = verify(inst, scheme)
            recover, secret, uniform = _exhaustive.exhaustive_verdicts(inst, scheme)
            assert recover == report.recoverable
            assert secret == report.perfectly_secret
            assert uniform == report.key_uniform


def test_criterion_6_two_user_solver(intro_pmf, bit_pmf):
    with criterion(6, 300.0, "one-way solver matches references"):
        ent, labels = min_sufficient_statistic(intro_pmf)
        assert labels == (0, 1, 2, 3)
        assert abs(ent - 2.0) < 1e-9
        assert abs(one_way_complexity(intro_pmf) - 1.0) < 1e-9

        sweep = run_sweep(intro_pmf)
        tc = compressed_curve_one_sided(sweep, [2.0])[0].value
        assert abs(tc - 1.0) <= 1e-3
        cr = constrained_curve_one_way(sweep, [1.0])[0].value
        assert abs(cr - 1.0) <= 1e-3
        report = duality_check(intro_pmf, sweep, [1.0, 1.5, 2.0])
        assert report.ok
        for pt in report.points:
            assert pt.residual < 5e-3

        grid = [0.0, 0.25, 0.5, 0.75, 1.0, 1.25]
        for alpha, pt in zip(grid, compressed_curve_one_sided(
                run_sweep(bit_pmf), grid)):
            assert abs(pt.value - min(alpha, 1.0)) <= 1e-6

        rng = random.Random(4242)
        comp_grid = [0.25, 0.6, 1.0]
        cons_grid = [0.02, 0.1, 0.3]
        for trial in range(3):
            raw = [[rng.uniform(0.2, 1.0) for _ in range(3)] for _ in range(3)]
            total = sum(sum(r) for r in raw)
            p = parse_source({"kind": "pmf", "users": ["1", "2"], "alphabets": [3, 3],
                              "table": [[x, y, raw[x][y] / total]
                                        for x in range(3) for y in range(3)]})
            ref = _oracle.BruteForceReference(pmf_matrix(p), comp_grid, cons_grid,
                                              step=32)
            psweep = run_sweep(p)
            info = mutual_information(p)
            comp = compressed_curve_one_sided(psweep, comp_grid)
            for pt in comp:
                assert pt.value >= ref.compressed.feas_value(pt.x) - 1e-3
                assert pt.value <= ref.compressed.env_value(pt.x) + 1e-3
                assert pt.value <= min(pt.x, info) + 1e-9
            cons = constrained_curve_one_way(psweep, cons_grid)
            for pt in cons:
                assert pt.value >= ref.constrained.feas_value(pt.x) - 1e-3
                assert pt.value <= ref.constrained.env_value(pt.x) + 1e-3
                assert pt.value <= info + 1e-9
            for curve in (psweep.compressed, psweep.constrained):
                assert check_curve(curve)


def test_criterion_7_every_curve_is_well_formed(example1, triangle, star, path3, bit_pmf):
    with criterion(7, 5.0, "all published curves pass the shape checker"):
        curves = [constant_curve(F(7, 3))]
        for src in (triangle, star, path3):
            pin = pin_curves(src)
            curves.extend([pin.compressed, pin.constrained])
        rng = random.Random(55)
        for _ in range(5):
            src = parse_source(_sources.random_connected_pin(rng))
            pin = pin_curves(src)
            curves.extend([pin.compressed, pin.constrained])
        for src in (example1, star):
            curves.append(lower_bound_curve(src).curve)
        for _ in range(3):
            src = parse_source(_sources.random_hypergraph(rng, n_users=rng.randint(2, 5)))
            curves.append(lower_bound_curve(src).curve)
        pts = [(F(0), F(0))]
        for _ in range(10):
            pts.append((F(rng.randint(0, 30), 2), F(rng.randint(0, 12), 3)))
        curves.append(upper_concave_envelope(pts))
        sweep = run_sweep(bit_pmf)
        curves.extend([sweep.compressed, sweep.constrained])
        assert len(curves) > 20
        for curve in curves:
            assert check_curve(curve)
