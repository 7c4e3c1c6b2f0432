import math
import random

import numpy as np
import pytest

from skalc import two_user
from skalc.errors import ResourceCapError, ValidationError
from skalc.source_model import entropy, gacs_korner, parse_source
from skalc.two_user import (
    _pick_witnesses,
    compressed_curve_one_sided,
    constrained_curve_one_way,
    duality_check,
    min_sufficient_statistic,
    mutual_information,
    one_way_complexity,
    pmf_matrix,
    run_sweep,
)

import _oracle
import _sources


def test_mutual_information(intro_pmf, bit_pmf):
    assert abs(mutual_information(intro_pmf) - 1.0) < 1e-12
    assert abs(mutual_information(bit_pmf) - 1.0) < 1e-12
    indep = parse_source(_sources.INDEP_PMF)
    assert abs(mutual_information(indep)) < 1e-12


def test_pmf_matrix_validation(example1):
    with pytest.raises(ValidationError):
        pmf_matrix(example1)
    three = parse_source({"kind": "pmf", "users": ["1", "2", "3"],
                          "alphabets": [2, 2, 2],
                          "table": [[0, 0, 0, 0.5], [1, 1, 1, 0.5]]})
    with pytest.raises(ValidationError):
        pmf_matrix(three)
    big = parse_source({"kind": "pmf", "users": ["1", "2"], "alphabets": [17, 2],
                        "table": [[i, i % 2, 1.0 / 17] for i in range(17)]})
    with pytest.raises(ResourceCapError):
        pmf_matrix(big)


def test_min_sufficient_statistic(intro_pmf, bit_pmf):
    ent, labels = min_sufficient_statistic(intro_pmf)
    assert labels == (0, 1, 2, 3)
    assert abs(ent - 2.0) < 1e-12
    ent, labels = min_sufficient_statistic(bit_pmf)
    assert labels == (0, 1)
    assert abs(ent - 1.0) < 1e-12
    half = parse_source(_sources.HALF_PMF)
    ent, labels = min_sufficient_statistic(half)
    assert labels == (0, 0, 1, 1)
    assert abs(ent - 1.0) < 1e-12


def test_min_sufficient_statistic_is_sufficient(intro_pmf):
    # grouping Z1 by its label leaves no extra information about Z2
    p = intro_pmf
    _, labels = min_sufficient_statistic(p)
    joint = {}
    for row, prob in zip(p.outcomes, p.probs):
        key = (labels[row[0]], row[1])
        joint[key] = joint.get(key, 0.0) + prob
    lm = {}
    zm = {}
    for (l, z), q in joint.items():
        lm[l] = lm.get(l, 0.0) + q
        zm[z] = zm.get(z, 0.0) + q
    iz = sum(q * math.log2(q / (lm[l] * zm[z])) for (l, z), q in joint.items())
    cond = mutual_information(p) - iz
    assert abs(cond) < 1e-9


def test_one_way_complexity(intro_pmf, bit_pmf):
    assert abs(one_way_complexity(intro_pmf) - 1.0) < 1e-9
    assert abs(one_way_complexity(bit_pmf)) < 1e-9
    half = parse_source(_sources.HALF_PMF)
    assert abs(one_way_complexity(half)) < 1e-9
    indep = parse_source(_sources.INDEP_PMF)
    assert abs(one_way_complexity(indep)) < 1e-9


def test_compressed_curve_intro(intro_pmf):
    sweep = run_sweep(intro_pmf)
    alphas = [0.0, 0.5, 1.0, 1.5, 2.0]
    points = compressed_curve_one_sided(sweep, alphas)
    for alpha, pt in zip(alphas, points):
        assert pt.x == alpha
        assert abs(pt.value - alpha / 2) <= 1e-3
        assert pt.value >= alpha / 2 - 1e-9
    # witnesses are feasible channels close to their curve point
    pmat = pmf_matrix(intro_pmf)
    px = pmat.sum(axis=1)
    for pt in points:
        if pt.witness is None:
            continue
        q = np.asarray(pt.witness.matrix)
        assert np.all(q >= -1e-12)
        assert np.allclose(q.sum(axis=1), 1.0, atol=1e-9)
        assert pt.witness.info_x <= pt.x + 1e-6
        assert pt.witness.info_y <= pt.value + 1e-6
        # recompute the scores from the matrix itself
        qt = px @ q
        ix = 0.0
        for i in range(q.shape[0]):
            for t in range(q.shape[1]):
                if q[i, t] > 0 and qt[t] > 0:
                    ix += px[i] * q[i, t] * math.log2(q[i, t] / qt[t])
        assert abs(ix - pt.witness.info_x) < 1e-8


def test_compressed_curve_uniform_bit(bit_pmf):
    sweep = run_sweep(bit_pmf)
    alphas = [0.0, 0.25, 0.5, 1.0, 1.5]
    points = compressed_curve_one_sided(sweep, alphas)
    for alpha, pt in zip(alphas, points):
        assert abs(pt.value - min(alpha, 1.0)) <= 1e-6


def test_compressed_curve_general_properties(intro_pmf):
    sweep = run_sweep(intro_pmf)
    info = mutual_information(intro_pmf)
    grid = [0.1 * k for k in range(21)]
    points = compressed_curve_one_sided(sweep, grid)
    values = [pt.value for pt in points]
    for alpha, v in zip(grid, values):
        assert v <= alpha + 1e-9
        assert v <= info + 1e-9
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_constrained_curve(intro_pmf, bit_pmf):
    sweep = run_sweep(intro_pmf)
    comp = one_way_complexity(intro_pmf)
    points = constrained_curve_one_way(sweep, [0.0, 0.5, 1.0, 2.0])
    assert points[0].value <= 1e-3
    for pt in points:
        if pt.x >= comp - 1e-9:
            assert abs(pt.value - 1.0) <= 1e-3
    values = [pt.value for pt in points]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    # identical observations: full rate never needed
    ident = constrained_curve_one_way(run_sweep(bit_pmf), [0.0, 1.0])
    for pt in ident:
        assert abs(pt.value - 1.0) <= 1e-6


def test_constrained_independent_pair():
    indep = parse_source(_sources.INDEP_PMF)
    points = constrained_curve_one_way(run_sweep(indep), [0.0, 1.0])
    for pt in points:
        assert abs(pt.value) <= 1e-9


def test_negative_grid_rejected(intro_pmf):
    sweep = run_sweep(intro_pmf)
    for bad in (-0.5, math.nan):
        with pytest.raises(ValidationError):
            compressed_curve_one_sided(sweep, [bad])
        with pytest.raises(ValidationError):
            constrained_curve_one_way(sweep, [bad])


def test_duality_intro(intro_pmf):
    report = duality_check(intro_pmf, run_sweep(intro_pmf), [1.0, 1.5, 2.0])
    assert report.ok
    for pt in report.points:
        assert pt.residual < 5e-3
        assert not pt.flagged


def test_duality_below_common_information(bit_pmf):
    sweep = run_sweep(bit_pmf)
    with pytest.raises(ValidationError):
        duality_check(bit_pmf, sweep, [0.5])
    report = duality_check(bit_pmf, sweep, [1.0, 2.0])
    assert report.ok


def test_alphabet_cap(example1):
    big = parse_source({"kind": "pmf", "users": ["1", "2"], "alphabets": [17, 17],
                        "table": [[i, i, 1.0 / 17] for i in range(17)]})
    with pytest.raises(ResourceCapError):
        run_sweep(big)


def _random_pmf(rng, nx=3, ny=3):
    raw = [[rng.uniform(0.2, 1.0) for _ in range(ny)] for _ in range(nx)]
    total = sum(sum(r) for r in raw)
    table = [[x, y, raw[x][y] / total] for x in range(nx) for y in range(ny)]
    return parse_source({"kind": "pmf", "users": ["1", "2"],
                         "alphabets": [nx, ny], "table": table})


def test_solver_matches_quantized_reference():
    rng = random.Random(99)
    p = _random_pmf(rng)
    pmat = pmf_matrix(p)
    comp_grid = [0.25, 0.6, 1.0]
    cons_grid = [0.02, 0.1, 0.3]
    ref = _oracle.BruteForceReference(pmat, comp_grid, cons_grid, step=16)
    sweep = run_sweep(p)
    comp = compressed_curve_one_sided(sweep, comp_grid)
    for pt in comp:
        assert pt.value >= ref.compressed.feas_value(pt.x) - 2e-3
        assert pt.value <= ref.compressed.env_value(pt.x) + 2e-3
    cons = constrained_curve_one_way(sweep, cons_grid)
    for pt in cons:
        assert pt.value >= ref.constrained.feas_value(pt.x) - 2e-3
        assert pt.value <= ref.constrained.env_value(pt.x) + 2e-3


def _criterion_6_pmfs():
    """The pmfs of acceptance criterion 6, drawn the same way."""
    rng = random.Random(4242)
    return [parse_source(_sources.INTRO_PMF), parse_source(_sources.BIT_PMF),
            *(_random_pmf(rng) for _ in range(3))]


def _channel_pmfs():
    rng = random.Random(13)
    return [parse_source(_sources.binary_channel_pmf(rng, channel))
            for channel in ("symmetric", "erasure", "z") * 4]


def _ib_pmfs():
    """Pmfs with |Z1| >= 3, the inputs that take the alternating maximization."""
    return ([p for p in _criterion_6_pmfs() if p.alphabets[0] >= 3]
            + [parse_source(_sources.HALF_PMF)])


def _table_pmf(rows):
    total = sum(map(sum, rows))
    return parse_source({"kind": "pmf", "users": ["1", "2"], "alphabets": [2, len(rows[0])],
                         "table": [[x, y, v / total] for x, row in enumerate(rows)
                                   for y, v in enumerate(row) if v]})


def _binary_pmfs():
    """Z channels, an erasure channel, seeded random 2 x k tables, and two
    tables that once tripped the sweep: at one ladder multiplier a grid too
    coarse for a narrow dip made the constant map look optimal, and a pair
    where Z2 determines Z1 scored i_x - i_y of T = Z1 at +1e-16, so the
    constrained curve read 0 at R = 0."""
    rng = random.Random(7)
    return ([parse_source(_sources.binary_channel_pmf(rng, channel))
             for channel in ("z", "z", "erasure")]
            + [_random_pmf(rng, 2, ny) for ny in (2, 3, 4)]
            + [_table_pmf([[0, 76, 62, 84], [68, 25, 5, 33]]),
               _table_pmf([[2, 0, 1], [0, 7, 0]])])


SWEEP_GRID = [k / 8 for k in range(17)]


@pytest.fixture(scope="module")
def frozen_and_oracle_sweeps():
    """(pmf, seed, sweep, sweep with the run-to-the-slowest oracle loop)."""
    out = []
    for seed, p in enumerate(_ib_pmfs()):
        frozen = run_sweep(p, seed=seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(two_user, "_ib_batch", _oracle.ib_batch)
            reference = run_sweep(p, seed=seed)
        out.append((p, seed, frozen, reference))
    return out


def test_frozen_sweep_matches_oracle_loop(frozen_and_oracle_sweeps):
    for p, _, frozen, reference in frozen_and_oracle_sweeps:
        info = mutual_information(p)
        for x in SWEEP_GRID:
            for curve, ref, cap in ((frozen.compressed, reference.compressed, min(x, info)),
                                    (frozen.constrained, reference.constrained, info)):
                value = curve.value_at(x)
                assert value >= ref.value_at(x) - 1e-4
                assert value <= cap + 1e-9


def test_sweep_channels_repeat_for_a_seed(frozen_and_oracle_sweeps):
    for p, seed, frozen, _ in frozen_and_oracle_sweeps:
        again = run_sweep(p, seed=seed)
        assert again.channels == frozen.channels
        assert again.compressed == frozen.compressed
        assert again.constrained == frozen.constrained
        assert again.seed == frozen.seed == seed


def test_binary_sweep_ignores_the_seed():
    for p in _channel_pmfs()[:3]:
        assert run_sweep(p, seed=0).channels == run_sweep(p, seed=9).channels


def test_stored_scores_match_a_fresh_scoring(frozen_and_oracle_sweeps):
    # Each batch is scored once, when it is made; scoring the whole cloud
    # again gives the very same floats.
    binary = [(p, run_sweep(p)) for p in _channel_pmfs()[:3]]
    for p, sweep in [(p, sweep) for p, _, sweep, _ in frozen_and_oracle_sweeps] + binary:
        mat = pmf_matrix(p)
        px, py = mat.sum(axis=1), mat.sum(axis=0)
        pygx = np.where(px[:, None] > 0, mat / np.maximum(px, 1e-300)[:, None],
                        1.0 / mat.shape[1])
        q = np.array([ch.matrix for ch in sweep.channels])
        ix, iy = two_user._channel_scores(q, px, py, *two_user._marginals(q, px, pygx))
        assert (np.maximum(ix, 0.0) / math.log(2.0)).tolist() == [
            ch.info_x for ch in sweep.channels]
        assert (np.maximum(iy, 0.0) / math.log(2.0)).tolist() == [
            ch.info_y for ch in sweep.channels]


def test_witness_pick_matches_loop(benchmark_two_user_sweeps):
    budgets = {False: lambda ch: ch.info_x,
               True: lambda ch: max(ch.info_x - ch.info_y, 0.0)}
    for sweep in benchmark_two_user_sweeps:
        for constrained, budget_of in budgets.items():
            picked = _pick_witnesses(sweep, SWEEP_GRID, constrained)
            for w, x in zip(picked, SWEEP_GRID):
                assert w is _oracle.pick_witness(sweep, budget_of, x)


def _h(p):
    return 0.0 if p in (0.0, 1.0) else -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def _h_inverse(v):
    """The crossover in [0, 1/2] whose binary entropy is v."""
    lo, hi = 0.0, 0.5
    for _ in range(200):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if _h(mid) < v else (lo, mid)
    return lo


def _dsbs(p):
    return {"kind": "pmf", "users": ["1", "2"], "alphabets": [2, 2],
            "table": [[0, 0, (1 - p) / 2], [0, 1, p / 2], [1, 0, p / 2], [1, 1, (1 - p) / 2]]}


def _bec(eps):
    return {"kind": "pmf", "users": ["1", "2"], "alphabets": [2, 3],
            "table": [[x, y, m / 2] for x in (0, 1) for y, m in ((x, 1 - eps), (2, eps))]}


def _mrs_gerber(p, alpha):
    d = _h_inverse(1 - alpha)
    return 1 - _h(p * (1 - d) + d * (1 - p))


@pytest.mark.parametrize("source, closed_form", [
    *[(_dsbs(p), lambda a, p=p: _mrs_gerber(p, a)) for p in (0.05, 0.1, 0.25)],
    *[(_bec(eps), lambda a, eps=eps: (1 - eps) * a) for eps in (0.2, 0.5)],
], ids=["dsbs-0.05", "dsbs-0.1", "dsbs-0.25", "bec-0.2", "bec-0.5"])
def test_compressed_curve_closed_forms(source, closed_form):
    # Doubly symmetric binary source: 1 - h(p * h^-1(1 - alpha)) by Mrs.
    # Gerber's Lemma; binary erasure: (1 - eps) * alpha.
    p = parse_source(source)
    alphas = [k / 10 for k in range(1, 10)]
    for pt in compressed_curve_one_sided(run_sweep(p), alphas):
        exact = closed_form(pt.x)
        assert exact - 1e-6 <= pt.value <= exact + 1e-9


def test_binary_sweep_never_runs_the_alternating_maximization(monkeypatch):
    def no_ib(*args, **kwargs):
        raise AssertionError("a binary Z1 takes the two-point-mixture sweep")

    monkeypatch.setattr(two_user, "_ib_batch", no_ib)
    for p in _binary_pmfs() + [parse_source(_sources.BIT_PMF),
                               parse_source(_sources.INDEP_PMF)]:
        sweep = run_sweep(p)
        assert all(ch.converged and len(ch.matrix[0]) == 2 for ch in sweep.channels)


@pytest.mark.parametrize("index", range(len(_binary_pmfs())))
def test_binary_sweep_matches_two_point_mixtures(index):
    # The oracle scores every mixture of two posteriors on a 2049-point grid;
    # its envelopes are within about 3e-7 of the exact curves.
    p = _binary_pmfs()[index]
    sweep = run_sweep(p)
    compressed, constrained = _oracle.two_point_mixtures(pmf_matrix(p))
    for x in [k / 64 for k in range(129)]:
        assert abs(sweep.compressed.value_at(x) - _oracle.majorant_value(compressed, x)) <= 1e-6
        assert abs(sweep.constrained.value_at(x)
                   - _oracle.majorant_value(constrained, x)) <= 1e-6
