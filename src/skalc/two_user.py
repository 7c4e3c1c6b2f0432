"""One-way trade-off curves for a two-user pmf source.

User 1 summarizes its observation through a stochastic map T given Z_1 and
sends nothing else; the relevant coordinates of a summary are
i_x = I(T; Z_1) and i_y = I(T; Z_2).  Two curves share one candidate set:

* compressed:  best i_y subject to i_x <= alpha (summary budget), and
* constrained: best i_y subject to i_x - i_y <= R (one-way discussion).

For a binary Z_1 the candidates are exact: at each multiplier the best
summary mixes two posteriors of Z_1 (Witsenhausen and Wyner 1975), found
by a grid search polished with Newton steps, and multipliers are added at
the curves' chord slopes until each chord is within CHORD_TOL of the curve
above it.  Witnesses then have two outputs, every candidate counts as
converged, and the seed is unused.  For |Z_1| >= 3 the candidates come from
a bottleneck-style alternating maximization, batched over random restarts
crossed with a geometric ladder of multipliers, plus deterministic anchors
(constant map, identity, coarsest sufficient statistic), and points carry
convergence flags, not exactness claims.  Either way, upper concave
envelopes over the candidates give the curve values, every candidate is a
feasible channel scored from its own matrix, and witnesses are the best
single feasible channels.
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
MIXTURE_LADDER = 33
BRIDGE_GRID = 5
BRIDGE_GRID_MAX = 257
NEWTON_STEPS = 3
CHORD_TOL = 1e-7
MAX_ROUNDS = 64
CHUNK = 100_000

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
    """I(Z_1; Z_2) = H(Z_1) + H(Z_2) - H(Z_1, Z_2), from the entropy table.

    The three entropies carry a few ulps of rounding, so an independent
    pair comes out near +-2e-16; any value under 1e-12 is reported as 0.
    """
    _check_pair(p)
    h = entropy_table(p)
    value = h[1] + h[2] - h[3]
    return value if value > 1e-12 else 0.0


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


def _xlogx(v: np.ndarray) -> np.ndarray:
    """v ln v for v >= 0, with 0 ln 0 = 0."""
    return v * np.log(np.maximum(v, 1e-300))


class _BinaryInput:
    """psi_lam(q) = H(q W0 + (1 - q) W1) - lam * h(q) in nats, for a binary
    Z_1 with P(Z_1 = 0) = p0 and rows W0, W1 of P(Z_2 | Z_1).

    A summary T with posteriors q_t = P(Z_1 = 0 | T = t) of mean p0 has
    i_y - lam * i_x = const - sum_t P(t) psi_lam(q_t), so the best summary at
    multiplier lam is the lower convex envelope of psi_lam at p0: a mixture of
    two posteriors a <= p0 <= b (Witsenhausen and Wyner 1975).
    """

    def __init__(self, p0: float, pygx: np.ndarray):
        self.p0 = p0
        self.w1 = pygx[1]
        self.d = pygx[0] - pygx[1]

    def psi(self, q: np.ndarray, lam: np.ndarray) -> np.ndarray:
        mix = self.w1 + q[..., None] * self.d
        return -_xlogx(mix).sum(axis=-1) + lam * (_xlogx(q) + _xlogx(1.0 - q))

    def local(self, q, lam):
        """[psi_lam, its slope psi', and d psi' / du = psi'' q (1 - q) in
        u = logit(q)] at q, taken a hair inside [0, 1]."""
        x = np.minimum(np.maximum(q, 1e-15), 1.0 - 1e-15)
        mix = np.maximum(self.w1 + x[:, None] * self.d, 1e-300)
        log_mix = np.log(mix)
        log_x, log_y = np.log(x), np.log1p(-x)
        psi = -(mix * log_mix).sum(axis=1) + lam * (x * log_x + (1.0 - x) * log_y)
        grad = -(self.d * log_mix).sum(axis=1) - lam * (log_y - log_x)
        curv = lam - x * (1.0 - x) * (self.d ** 2 / mix).sum(axis=1)
        return [psi, grad, curv]

    def chord(self, a, b, psi_a, psi_b):
        """(value at p0, slope) of the chord from (a, psi_a) to (b, psi_b)."""
        slope = np.where(b > a, (psi_b - psi_a) / np.where(b > a, b - a, 1.0), 0.0)
        return psi_a + slope * (self.p0 - a), slope

    @staticmethod
    def tangent_step(q, grad, curv, slope, lo, hi):
        """One Newton step on psi'(q) = slope in u = logit(q), which keeps the
        log singularities at q = 0 and 1 tame; kept in [lo, hi].  A point
        where psi is not convex stays put."""
        ok = curv > 0
        x = np.minimum(np.maximum(q, 1e-15), 1.0 - 1e-15)
        u = np.log(x) - np.log1p(-x) - (grad - slope) / np.where(ok, curv, 1.0)
        step = 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(u, -50.0), 50.0)))
        return np.where(ok, np.minimum(np.maximum(step, lo), hi), q)

    def bridge(self, lam, a_lo, a_hi, b_lo, b_hi, k):
        """The mixture (a, b) that forms the envelope of psi_lam at p0, per
        multiplier, with a in [a_lo, a_hi] and b in [b_lo, b_hi].

        Each side gets a k-point cosine grid and the best of the k * k grid
        chords is taken; then Newton steps place both ends at the common
        tangent, each kept within its grid cell and taken only while the
        chord's value at p0 drops.  Where they end off the tangent, or a grid
        point lies below the line they span, the grid was too coarse to pick
        the right cells, and the multiplier is solved again on a grid four
        times finer, up to BRIDGE_GRID_MAX points.
        """
        t = (1.0 - np.cos(np.linspace(0.0, math.pi, k))) / 2.0
        a, b = np.empty(len(lam)), np.empty(len(lam))
        tangent = np.empty(len(lam), bool)
        rows = max(1, CHUNK // (k * max(k, len(self.d))))
        for s in range(0, len(lam), rows):
            sl = slice(s, s + rows)
            grid_a = a_lo[sl, None] + (a_hi - a_lo)[sl, None] * t
            grid_b = b_lo[sl, None] + (b_hi - b_lo)[sl, None] * t
            a[sl], b[sl], tangent[sl] = self._bridge_rows(lam[sl], grid_a, grid_b)
        redo = ~tangent
        if redo.any() and k < BRIDGE_GRID_MAX:
            a[redo], b[redo] = self.bridge(lam[redo], a_lo[redo], a_hi[redo], b_lo[redo],
                                           b_hi[redo], min(4 * k - 3, BRIDGE_GRID_MAX))
        return a, b

    def _bridge_rows(self, lam, grid_a, grid_b):
        n, k = grid_a.shape
        psi_grid = self.psi(np.concatenate([grid_a, grid_b], axis=1), lam[:, None])
        psi_a, psi_b = psi_grid[:, :k, None], psi_grid[:, None, k:]
        qa, qb = grid_a[:, :, None], grid_b[:, None, :]
        span = qb - qa
        value = np.where(span > 0, ((qb - self.p0) * psi_a + (self.p0 - qa) * psi_b)
                         / np.where(span > 0, span, 1.0), psi_a)
        ia, ib = np.divmod(value.reshape(n, k * k).argmin(axis=1), k)
        r = np.arange(n)
        a, b = grid_a[r, ia], grid_b[r, ib]
        a_lo, a_hi = grid_a[r, np.maximum(ia - 1, 0)], grid_a[r, np.minimum(ia + 1, k - 1)]
        b_lo, b_hi = grid_b[r, np.maximum(ib - 1, 0)], grid_b[r, np.minimum(ib + 1, k - 1)]
        at_a, at_b = self.local(a, lam), self.local(b, lam)
        value, slope = self.chord(a, b, at_a[0], at_b[0])
        tangent = self.tangent(a, b, at_a, at_b, slope)
        for _ in range(NEWTON_STEPS):
            # Only the rows still off the tangent take a step.
            i = np.flatnonzero(~tangent)
            if not i.size:
                break
            na = self.tangent_step(a[i], at_a[1][i], at_a[2][i], slope[i], a_lo[i], a_hi[i])
            nb = self.tangent_step(b[i], at_b[1][i], at_b[2][i], slope[i], b_lo[i], b_hi[i])
            at_na, at_nb = self.local(na, lam[i]), self.local(nb, lam[i])
            new_value, new_slope = self.chord(na, nb, at_na[0], at_nb[0])
            drop = new_value < value[i]
            j = i[drop]
            a[j], b[j], value[j], slope[j] = na[drop], nb[drop], new_value[drop], new_slope[drop]
            for col, new in zip(at_a + at_b, at_na + at_nb):
                col[j] = new[drop]
            tangent[i] = self.tangent(a[i], b[i], [c[i] for c in at_a], [c[i] for c in at_b],
                                      slope[i])
        # The mixture is the envelope on the grid when no grid point lies
        # below its supporting line: the chord, or for the constant map (a
        # mixture with an end at p0, whatever the other end) the tangent at
        # p0.  Both ends of the constant map are pinned at p0, so that the
        # brackets of later multipliers start from the bridge (p0, p0).
        const = (a >= self.p0) | (b <= self.p0)
        at_p0 = b <= self.p0
        anchor = np.where(at_p0, b, a)
        line = (np.where(at_p0, at_b[0], at_a[0])[:, None]
                + np.where(const, np.where(at_p0, at_b[1], at_a[1]), slope)[:, None]
                * (np.concatenate([grid_a, grid_b], axis=1) - anchor[:, None]))
        supported = (psi_grid - line).min(axis=1) >= -1e-12
        return np.where(const, self.p0, a), np.where(const, self.p0, b), supported & tangent

    def tangent(self, a, b, at_a, at_b, slope):
        """Whether each end is at the tangent: psi convex there, with a Newton
        step left to gain under 1e-12, or the end at 0 or 1 with psi rising
        away from the chord.  The constant map needs psi convex at p0."""
        def settled(q, grad, curv, boundary, outward):
            x = np.minimum(np.maximum(q, 1e-15), 1.0 - 1e-15)
            miss = grad - slope
            inner = (curv > 0) & (miss * miss * x * (1.0 - x) <= 1e-12 * curv)
            return np.where(boundary, outward * miss >= 0, inner)

        ends = (settled(a, *at_a[1:], a <= 0, 1.0) & settled(b, *at_b[1:], b >= 1, -1.0))
        const = np.where(a >= self.p0, at_a[2], at_b[2]) >= 0
        return np.where((a >= self.p0) | (b <= self.p0), const, ends)

    def channels(self, a, b):
        """Two-output channels q(t | z1) whose posteriors are a (t = 0) and b."""
        p0 = self.p0
        w = np.where(b > a, (b - p0) / np.where(b > a, b - a, 1.0), 1.0)
        t0 = np.minimum(np.stack([w * a / p0, w * (1.0 - a) / (1.0 - p0)], axis=1), 1.0)
        return np.stack([t0, 1.0 - t0], axis=2)


def _mixture_batches(px, pygx, scored):
    """Exact sweep for a binary Z_1: the envelope supports over multipliers
    lam in [0, 1].

    lam = s is the slope-s support of the compressed curve and s / (1 + s)
    that of the constrained one, so one family serves both.  A ladder of
    MIXTURE_LADDER multipliers over the whole of [0, 1] starts it; then every
    pair of adjacent supports A, B (lam_A > lam_B) is probed at its chord
    slope c, whose support lies between theirs: as lam grows, so does the set
    where psi_lam meets its envelope, so a moves up and b down.  A probe is
    kept, and splits the pair, when it rises above the chord by more than
    CHORD_TOL in either curve's own coordinates (the constrained rise is the
    compressed one over 1 - c).
    """
    p0 = float(px[0] / px.sum())
    if not 0.0 < p0 < 1.0:
        const = np.zeros((1, 2, 2))
        const[0, :, 0] = 1.0
        return [scored(const, np.ones(1, bool))]
    src = _BinaryInput(p0, pygx)

    def support(lam, a_lo, a_hi, b_lo, b_hi):
        """Columns (q, i_x, i_y, lam, a, b) of the supports at ``lam``."""
        a, b = src.bridge(lam, a_lo, a_hi, b_lo, b_hi, BRIDGE_GRID)
        q = src.channels(a, b)
        _, _, ix, iy = scored(q, None)
        return [q, ix, iy, lam, a, b]

    ones = np.ones(MIXTURE_LADDER)
    lam = np.linspace(1.0, 0.0, MIXTURE_LADDER)
    found = [support(lam, 0.0 * ones, p0 * ones, p0 * ones, ones)]
    left = [col[:-1] for col in found[0]]  # the higher lam, smaller i_x end of each pair
    right = [col[1:] for col in found[0]]
    for _ in range(MAX_ROUNDS):
        _, xa, ya, la, aa, ba = left
        _, xb, yb, lb, ab, bb = right
        dx = xb - xa
        slope = np.clip((yb - ya) / np.maximum(dx, 1e-300), lb, la)
        # The supporting lines at A and B, of slopes lam_A and lam_B, bound the
        # curve from above, so it rises above the chord by at most where they
        # cross: a pair whose crossing is within the tolerance is final unprobed.
        room = CHORD_TOL * (1.0 - slope)
        cross = (la - slope) * (slope - lb) * dx / np.maximum(la - lb, 1e-300)
        live = (dx > 1e-12) & (yb - ya > 1e-12) & (cross > room)
        if not live.any():
            break
        left, right = [c[live] for c in left], [c[live] for c in right]
        _, xa, ya, la, aa, ba = left
        _, xb, yb, lb, ab, bb = right
        slope, room = slope[live], room[live]
        probe = support(slope, ab, aa, ba, bb)
        keep = (probe[2] - slope * probe[1]) - (ya - slope * xa) > room
        probe = [c[keep] for c in probe]
        found.append(probe)
        left = [np.concatenate([l[keep], p]) for l, p in zip(left, probe)]
        right = [np.concatenate([p, r[keep]]) for p, r in zip(probe, right)]
    return [(q, np.ones(len(q), bool), ix, iy) for q, ix, iy, *_ in found]


def _ib_batches(p, px, py, pygx, scored, seed):
    """Candidate batches of the alternating maximization, for |Z_1| >= 3.

    A geometric multiplier ladder seeds the cloud; the envelope is then
    refined by re-running the maximization at the chord slopes of its own
    vertices, which fills gaps the fixed ladder stepped over (the trade-off
    collapses to the trivial fixed point below a source-dependent critical
    multiplier, so useful multipliers can cluster tightly).
    """
    nx = len(px)
    nt = nx + 1
    h_row = -(np.where(pygx > 0, pygx * np.log(np.maximum(pygx, 1e-300)), 0.0)).sum(axis=1)

    anchors = np.zeros((3, nx, nt))
    anchors[0, :, 0] = 1.0
    anchors[1, np.arange(nx), np.arange(nx)] = 1.0
    labels = min_sufficient_statistic(p)[1]
    for i, lab in enumerate(labels):
        anchors[2, i, min(lab, nt - 1)] = 1.0

    rng = np.random.default_rng(seed)
    ladder = np.exp2(np.linspace(-10.0, 10.0, MULTIPLIERS))

    def launch(betas):
        q0 = rng.random((RESTARTS * len(betas), nx, nt))
        q0 /= q0.sum(axis=2, keepdims=True)
        return scored(*_ib_batch(px, pygx, h_row, py, q0, np.repeat(betas, RESTARTS)))

    batches = [scored(anchors, np.ones(3, bool)), launch(ladder)]
    probed = [math.log(b) for b in ladder]
    for _ in range(REFINE_ROUNDS):
        ix = np.concatenate([batch[2] for batch in batches])
        iy = np.concatenate([batch[3] for batch in batches])
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
    return batches


def run_sweep(p: JointPMF, seed: int = 0) -> SweepResult:
    """Generate the candidate channel cloud and both envelopes.

    One sweep serves both curves; the query functions read it.  A binary
    Z_1 gets the exact two-point-mixture sweep, which uses no randomness;
    larger alphabets get the seeded alternating maximization.  Each batch is
    scored once, when it is made.  A negative seed is rejected for every
    pmf, before any work.
    """
    if seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}")
    mat = pmf_matrix(p)
    nx, ny = mat.shape
    px = mat.sum(axis=1)
    py = mat.sum(axis=0)
    pygx = np.where(px[:, None] > 0, mat / np.maximum(px, 1e-300)[:, None], 1.0 / ny)

    def scored(q, converged):
        """The batch with its (i_x, i_y) in bits, floored at 0."""
        ix, iy = _channel_scores(q, px, py, *_marginals(q, px, pygx))
        return q, converged, np.maximum(ix, 0.0) / _LN2, np.maximum(iy, 0.0) / _LN2

    if nx == 2:
        batches = _mixture_batches(px, pygx, scored)
    else:
        batches = _ib_batches(p, px, py, pygx, scored, seed)

    def column(k):
        return np.concatenate([batch[k] for batch in batches])

    ix, iy = column(2), column(3)
    # One channel's rows at a time: converting the whole cloud in one
    # tolist() call raised the process's peak memory by about 1 MB.
    channels = tuple(
        ChannelWitness(tuple(map(tuple, q.tolist())), x, y, conv)
        for q, x, y, conv in zip(column(0), ix.tolist(), iy.tolist(), column(1).tolist())
    )
    rate = np.maximum(ix - iy, 0.0)
    if nx == 2:
        # A mixture with i_x = i_y, such as revealing a part of Z_1 that Z_2
        # determines, scores a few ulps apart; as witness picking does, a
        # rate within FEAS_SLACK of 0 needs no discussion.
        rate[rate <= FEAS_SLACK] = 0.0
    compressed = _envelope(ix, iy)
    constrained = _envelope(rate, iy)
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
