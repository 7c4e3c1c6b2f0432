"""One-way trade-off curves for a two-user pmf source.

User 1 summarizes its observation through a stochastic map T given Z_1 and
sends nothing else; the relevant coordinates of a summary are
i_x = I(T; Z_1) and i_y = I(T; Z_2).  Two curves share one candidate set:

* compressed:  best i_y subject to i_x <= alpha (summary budget), and
* constrained: best i_y subject to i_x - i_y <= R (one-way discussion).

Candidates come from a bottleneck-style alternating maximization, batched
over random restarts crossed with a geometric ladder of multipliers, plus
deterministic anchors (constant map, identity, coarsest sufficient
statistic).  Upper concave envelopes over the candidate cloud give the
curve values; witnesses are the best single feasible channels.  Float
arithmetic throughout, so points carry convergence flags, not exactness
claims.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .curves import CapacityCurve, upper_concave_envelope
from .errors import ResourceCapError, ValidationError
from .source_model import JointPMF, entropy_of_masses, entropy_table, gacs_korner

__all__ = [
    "ChannelWitness",
    "SweepResult",
    "TwoUserCurvePoint",
    "DualityPoint",
    "DualityReport",
    "run_sweep",
    "compressed_curve_one_sided",
    "constrained_curve_one_way",
    "duality_check",
    "mutual_information",
    "min_sufficient_statistic",
    "one_way_complexity",
    "pmf_matrix",
    "ALPHABET_CAP",
]

ALPHABET_CAP = 16
RESTARTS = 64
MULTIPLIERS = 24
MAX_ITERS = 500
OBJ_TOL = 1e-10
ROW_TOL = 1e-10
FEAS_SLACK = 1e-8
DUALITY_FLAG = 5e-3
REFINE_ROUNDS = 3

_LN2 = math.log(2.0)


def _check_pair(p: JointPMF) -> None:
    if not isinstance(p, JointPMF):
        raise ValidationError("one-way analysis needs a pmf source")
    if len(p.users) != 2:
        raise ValidationError("one-way analysis needs exactly two users")
    if max(p.alphabets) > ALPHABET_CAP:
        raise ResourceCapError(
            f"alphabet size {max(p.alphabets)} exceeds the cap {ALPHABET_CAP}")


def pmf_matrix(p: JointPMF) -> np.ndarray:
    _check_pair(p)
    mat = np.zeros((p.alphabets[0], p.alphabets[1]))
    for outcome, prob in zip(p.outcomes, p.probs):
        mat[outcome[0], outcome[1]] += float(prob)
    return mat


def mutual_information(p: JointPMF) -> float:
    """I(Z_1; Z_2) = H(Z_1) + H(Z_2) - H(Z_1, Z_2), from the entropy table."""
    _check_pair(p)
    h = entropy_table(p)
    return h[1] + h[2] - h[3]


def min_sufficient_statistic(p: JointPMF) -> tuple[float, tuple[int, ...]]:
    """Coarsest statistic of user 1's symbol that determines its conditional
    on user 2.

    Returns (entropy of the class distribution in bits, label per symbol).
    Symbols with identical conditional rows (within ROW_TOL per entry) share
    a class; zero-mass symbols get fresh labels and no mass.
    """
    mat = pmf_matrix(p)
    px = mat.sum(axis=1).tolist()
    reps: list[np.ndarray] = []
    labels: list[int] = []
    for i in range(mat.shape[0]):
        if px[i] <= 0:
            labels.append(-1)
            continue
        row = mat[i] / px[i]
        for li, rep in enumerate(reps):
            if np.abs(row - rep).max() <= ROW_TOL:
                labels.append(li)
                break
        else:
            labels.append(len(reps))
            reps.append(row)
    masses = [0.0] * len(reps)
    for i, lab in enumerate(labels):
        if lab >= 0:
            masses[lab] += px[i]
    fresh = itertools.count(len(reps))
    return entropy_of_masses(masses), tuple(lab if lab >= 0 else next(fresh) for lab in labels)


def one_way_complexity(p: JointPMF) -> float:
    """Discussion rate after which the one-way constrained curve is flat:
    entropy of the minimal sufficient statistic minus the mutual
    information.  Nonnegative by the data-processing inequality."""
    value = min_sufficient_statistic(p)[0] - mutual_information(p)
    return max(value, 0.0)


@dataclass(frozen=True)
class ChannelWitness:
    """One candidate summary map: rows are q(t | z1)."""

    matrix: tuple[tuple[float, ...], ...]
    info_x: float
    info_y: float
    converged: bool


@dataclass(frozen=True)
class SweepResult:
    channels: tuple[ChannelWitness, ...]
    compressed: CapacityCurve
    constrained: CapacityCurve
    mutual_info: float
    seed: int


def _marginals(q: np.ndarray, px: np.ndarray, pygx: np.ndarray):
    """(q(t), q(t, y)) for a batch of channels q: (N, X, T)."""
    qt = np.einsum("x,nxt->nt", px, q)
    qty = np.einsum("x,nxt,xy->nty", px, q, pygx)
    return qt, qty


def _channel_scores(q: np.ndarray, px: np.ndarray, py: np.ndarray, qt: np.ndarray,
                    qty: np.ndarray):
    """(i_x, i_y) in nats for a batch of channels q with marginals (qt, qty)."""
    qt_safe = np.maximum(qt, 1e-300)
    ratio = q / qt_safe[:, None, :]
    ix = np.einsum("x,nxt->n", px, np.where(q > 0, q * np.log(np.maximum(ratio, 1e-300)), 0.0))
    qygt = qty / qt_safe[:, :, None]
    ly = np.log(np.maximum(qygt / np.maximum(py, 1e-300)[None, None, :], 1e-300))
    iy = np.where(qty > 0, qty * ly, 0.0).sum(axis=(1, 2))
    return ix, iy


def _ib_batch(px, pygx, h_row, py, q, beta_flat):
    """Run alternating maximization to a fixed point for each (init, beta).

    Returns the final channels and per-run convergence flags.  A run is
    frozen, and counts as converged, the first iteration its Lagrangian
    objective moves less than OBJ_TOL; only the others keep iterating, up
    to MAX_ITERS.
    """
    out = np.empty_like(q)
    converged = np.zeros(len(beta_flat), bool)
    active = np.arange(len(beta_flat))
    prev_obj = np.full(len(beta_flat), np.inf)
    qt, qty = _marginals(q, px, pygx)
    for _ in range(MAX_ITERS):
        qt_safe = np.maximum(qt, 1e-300)
        qygt = qty / qt_safe[:, :, None]
        log_qygt = np.log(np.maximum(qygt, 1e-300))
        cross = np.einsum("xy,nty->nxt", pygx, log_qygt)
        kl = np.maximum(-h_row[None, :, None] - cross, 0.0)
        logits = np.log(qt_safe)[:, None, :] - beta_flat[:, None, None] * kl
        logits -= logits.max(axis=2, keepdims=True)
        q = np.exp(logits)
        q /= q.sum(axis=2, keepdims=True)
        qt, qty = _marginals(q, px, pygx)
        ix, iy = _channel_scores(q, px, py, qt, qty)
        obj = ix - beta_flat * iy
        done = np.abs(obj - prev_obj) < OBJ_TOL
        if done.any():
            out[active[done]] = q[done]
            converged[active[done]] = True
            live = ~done
            active, q, qt, qty = active[live], q[live], qt[live], qty[live]
            beta_flat, obj = beta_flat[live], obj[live]
            if not active.size:
                break
        prev_obj = obj
    out[active] = q
    return out, converged


def _chord_multipliers(points, constrained: bool):
    """Multipliers whose Lagrangian optimum cuts between adjacent vertices.

    A chord of slope s on the budget curve is matched by beta = 1/s; on the
    rate-difference curve the same stationarity gives beta = 1 + 1/s.
    """
    out = []
    for (x1, y1), (x2, y2) in zip(points, points[1:]):
        dx = x2 - x1
        dy = y2 - y1
        if dx <= 1e-12 or dy <= 1e-12:
            continue
        s = dy / dx
        out.append(1.0 + 1.0 / s if constrained else 1.0 / s)
    return out


def _envelope(xs: np.ndarray, ys: np.ndarray) -> CapacityCurve:
    """``upper_concave_envelope`` of (0, 0) and the points (xs, ys).

    The envelope drops every point that some point at a smaller or equal x
    matches or beats in y; dropping them here first, with one lexsort (x
    ascending, y descending) and a running max of y, leaves it only the
    frontier to turn into Python tuples.
    """
    order = np.lexsort((-ys, xs))
    xs, ys = xs[order], ys[order]
    best_before = np.maximum.accumulate(np.concatenate(([0.0], ys[:-1])))
    keep = ys > best_before
    return upper_concave_envelope(
        [(0.0, 0.0), *zip(xs[keep].tolist(), ys[keep].tolist())])


def run_sweep(p: JointPMF, seed: int = 0) -> SweepResult:
    """Generate the candidate channel cloud and both envelopes.

    One sweep serves both curves; the query functions read it.  A geometric
    multiplier ladder seeds the cloud; the envelope is then refined by
    re-running the maximization at the chord slopes of its own vertices,
    which fills gaps the fixed ladder stepped over (the trade-off collapses
    to the trivial fixed point below a source-dependent critical multiplier,
    so useful multipliers can cluster tightly).  Each batch is scored once,
    when it is made.
    """
    mat = pmf_matrix(p)
    nx, ny = mat.shape
    nt = nx + 1
    px = mat.sum(axis=1)
    py = mat.sum(axis=0)
    pygx = np.where(px[:, None] > 0, mat / np.maximum(px, 1e-300)[:, None], 1.0 / ny)
    h_row = -(np.where(pygx > 0, pygx * np.log(np.maximum(pygx, 1e-300)), 0.0)).sum(axis=1)

    anchors = np.zeros((3, nx, nt))
    anchors[0, :, 0] = 1.0
    anchors[1, np.arange(nx), np.arange(nx)] = 1.0
    labels = min_sufficient_statistic(p)[1]
    for i, lab in enumerate(labels):
        anchors[2, i, min(lab, nt - 1)] = 1.0

    rng = np.random.default_rng(seed)
    ladder = np.exp2(np.linspace(-10.0, 10.0, MULTIPLIERS))

    def scored(q, converged):
        """The batch with its (i_x, i_y) in bits, floored at 0."""
        ix, iy = _channel_scores(q, px, py, *_marginals(q, px, pygx))
        return q, converged, np.maximum(ix, 0.0) / _LN2, np.maximum(iy, 0.0) / _LN2

    def launch(betas):
        q0 = rng.random((RESTARTS * len(betas), nx, nt))
        q0 /= q0.sum(axis=2, keepdims=True)
        return scored(*_ib_batch(px, pygx, h_row, py, q0, np.repeat(betas, RESTARTS)))

    batches = [scored(anchors, np.ones(3, bool)), launch(ladder)]
    probed = [math.log(b) for b in ladder]

    def column(k):
        return np.concatenate([batch[k] for batch in batches])

    for _ in range(REFINE_ROUNDS):
        ix, iy = column(2), column(3)
        comp_env = _envelope(ix, iy)
        cons_env = _envelope(np.maximum(ix - iy, 0.0), iy)
        fresh = []
        for beta in (_chord_multipliers(comp_env.points, False)
                     + _chord_multipliers(cons_env.points, True)):
            if not (2.0 ** -12 <= beta <= 2.0 ** 14):
                continue
            lb = math.log(beta)
            if all(abs(lb - seen) > 0.02 for seen in probed + [math.log(b) for b in fresh]):
                fresh.append(beta)
        if not fresh:
            break
        batches.append(launch(np.array(sorted(fresh))))
        probed.extend(math.log(b) for b in fresh)

    ix, iy = column(2), column(3)
    # One channel's rows at a time: converting the whole cloud in one
    # tolist() call raised the process's peak memory by about 1 MB.
    channels = tuple(
        ChannelWitness(tuple(map(tuple, q.tolist())), x, y, conv)
        for q, x, y, conv in zip(column(0), ix.tolist(), iy.tolist(), column(1).tolist())
    )
    compressed = _envelope(ix, iy)
    constrained = _envelope(np.maximum(ix - iy, 0.0), iy)
    return SweepResult(channels, compressed, constrained, mutual_information(p), seed)


@dataclass(frozen=True)
class TwoUserCurvePoint:
    x: float
    value: float
    witness: ChannelWitness | None
    converged: bool


def _pick_witnesses(sweep: SweepResult, xs: Sequence[float],
                    constrained: bool) -> list[ChannelWitness | None]:
    """Per budget x, the first channel of highest i_y whose budget
    (i_x, or i_x - i_y floored at 0 when ``constrained``) is at most x."""
    info = np.array([(ch.info_x, ch.info_y) for ch in sweep.channels])
    ix, iy = info[:, 0], info[:, 1]
    budget = np.maximum(ix - iy, 0.0) if constrained else ix
    feasible = budget[None, :] <= np.array(xs)[:, None] + FEAS_SLACK
    best = np.where(feasible, iy[None, :], -np.inf).argmax(axis=1)
    return [sweep.channels[k] if ok else None
            for k, ok in zip(best.tolist(), feasible.any(axis=1).tolist())]


def _curve_points(sweep: SweepResult, xs: Sequence[float],
                  constrained: bool) -> tuple[TwoUserCurvePoint, ...]:
    xs = [float(x) for x in xs]
    if not all(x >= 0 for x in xs):
        raise ValidationError(f"{'rates' if constrained else 'budgets'} must be nonnegative")
    curve = sweep.constrained if constrained else sweep.compressed
    return tuple(
        TwoUserCurvePoint(x, float(curve.value_at(x)), w, w.converged if w else True)
        for x, w in zip(xs, _pick_witnesses(sweep, xs, constrained)))


def compressed_curve_one_sided(sweep: SweepResult,
                               alphas: Sequence[float]) -> tuple[TwoUserCurvePoint, ...]:
    """Best one-way key rate per summary-information budget."""
    return _curve_points(sweep, alphas, False)


def constrained_curve_one_way(sweep: SweepResult,
                              rates: Sequence[float]) -> tuple[TwoUserCurvePoint, ...]:
    """Best one-way key rate per public discussion rate."""
    return _curve_points(sweep, rates, True)


@dataclass(frozen=True)
class DualityPoint:
    alpha: float
    compressed_value: float
    constrained_value: float
    residual: float
    flagged: bool


@dataclass(frozen=True)
class DualityReport:
    points: tuple[DualityPoint, ...]

    @property
    def ok(self) -> bool:
        return not any(pt.flagged for pt in self.points)


def duality_check(p: JointPMF, sweep: SweepResult, alphas: Sequence[float]) -> DualityReport:
    """Residuals of the budget-splitting identity tC(a) = C(a - tC(a)) on
    the sweep of ``p``.

    The identity holds once the budget covers the common part both users
    hold outright; smaller budgets are rejected.  Points whose residual
    exceeds DUALITY_FLAG are flagged.
    """
    jgk = float(gacs_korner(p))
    points = []
    for alpha in alphas:
        alpha = float(alpha)
        if alpha < jgk - 1e-9:
            raise ValidationError(
                f"budget {alpha} is below the shared common part {jgk}; "
                "the splitting identity needs alpha >= that floor")
        tc = float(sweep.compressed.value_at(alpha))
        c = float(sweep.constrained.value_at(max(alpha - tc, 0.0)))
        resid = abs(tc - c)
        points.append(DualityPoint(alpha, tc, c, resid, resid > DUALITY_FLAG))
    return DualityReport(tuple(points))
