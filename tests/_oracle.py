"""Brute-force references the fast paths are checked against.

``mmi_two_pass`` is the two-pass ``Fraction`` partition search that
``skalc.mmi.mmi`` replaced, kept unchanged together with its enumerator of
restricted growth strings and ``_block_entropy``, its per-mask ``Fraction``
entropy that ``source_model.entropy_table`` replaced.
``mmi_bell`` is the one-pass integer Bell scan that the hypergraph branch
of ``skalc.mmi.mmi`` ran before its Newton engine.

``simplex_min`` is the ``Fraction`` tableau simplex that the integer
``skalc.lp.simplex_min`` replaced, kept unchanged; the integer version must
return an identical ``LpSolution``.

``enumerate_subsets`` is the 0/1 edge-subset scan that ``lower_bound_curve``
used to run as a cross-check, kept unchanged; no subset point may lie above
the LP envelope.  ``partition_coefficients`` builds its ``Fraction`` rows
from the restricted growth strings.  ``best_restriction`` is the
``Fraction`` cutting-plane loop over those rows, kept unchanged with its
``_dot`` separation; the integer loop must add the same cuts.

``duality_upper_bound`` and ``alpha_s_lower_bound`` are the breakpoint
searches that ``skalc.capacity`` replaced with the minimum over the supplied
curve's lines, kept unchanged: the crossing g = U(alpha - g) interpolated on
the piece the breakpoint candidates bracket, and the first piece that
reaches the cap.

``Gf2Basis`` and ``complement_units`` are the back-eliminating GF(2) basis
and its unit-by-unit complement that ``skalc.gf2`` replaced with an echelon
basis, kept unchanged.  ``partition_into_forests`` is the matroid partition
that tried to insert every element, kept unchanged with its ``_forest_path``;
``skalc.protocol_sim`` skips the clones of a failed element and stops at
full rank, and must return the same forests and owner map.
``max_spanning_tree_packing`` is the packing loop that reran that partition
for k = 1, 2, ... until a run failed; ``tree_packing_scheme`` now runs it
once at floor(n * strength).
``verify`` and ``omniscience_reached`` are the unit-vector recoverability
checks that copied the transcript basis and inserted one unit per observed
bit, where ``skalc.protocol_sim`` now masks the observed bits off.
``binning_row`` is binning's loop of one ``getrandbits(1)`` per observed
bit, kept unchanged; the one-word row draw must give the same rows and
leave the generator in the same state.

``ib_batch`` is the two-user alternating maximization that ran every run
of a batch until the slowest one converged, kept unchanged; the frozen loop
in ``skalc.two_user`` must reach curve values no lower than it does, less
a small tolerance.  ``pick_witness`` is the per-channel witness loop that
a masked argmax replaced; both must pick the same channel.

``two_point_mixtures`` is the dense-grid reference for the exact two-user
sweep of a binary Z1: the envelopes of every two-point mixture of
posteriors on a grid, with ``majorant_value`` to read a curve off them.

``BruteForceReference`` is the quantized reference for the two-user one-way
curves.

Enumerates every channel q(t|x) whose rows live on the 1/step simplex grid
with at most three clusters, scores (I(X;T), I(T;Y)) for each, and keeps two
summaries per coordinate system:

* exact feasible maxima at requested grid abscissas, and
* an upper concave envelope of the full point cloud.

Relabeling clusters permutes all rows' columns together, so the first row can
be restricted to non-increasing order without losing any channel up to
equivalence.  The envelope is built from per-bucket extremes (bucket width
1/4096); every kept point is achievable, and any discarded point lies within
one bucket of a kept one, so the envelope is exact to ~2.5e-4.
"""

from __future__ import annotations

import bisect
import math
from collections import deque
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from skalc.capacity import EDGE_CAP
from skalc.curves import CapacityCurve
from skalc.errors import InternalCheckError, ResourceCapError, ValidationError
from skalc.lp import _MAX_PIVOTS, LpSolution
from skalc.mmi import (
    DEFAULT_USER_CAP,
    FLOAT_TIE_TOL,
    HARD_USER_CAP,
    MmiResult,
    _canonical_partition,
    _minimize_exact,
    iter_partitions,
)
from skalc.protocol_sim import VerificationReport, validate_scheme
from skalc.source_model import HypergraphicalSource, SourceSpec, entropy, entropy_table
from skalc.two_user import FEAS_SLACK, MAX_ITERS, OBJ_TOL, _channel_scores, _marginals

_BUCKETS_PER_UNIT = 4096
_SUBSET_OP_BUDGET = 2_000_000


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head, *rest)


def _nplogp(a: np.ndarray, axis) -> np.ndarray:
    safe = np.maximum(a, 1e-300)
    return np.where(a > 0, a * np.log2(safe), 0.0).sum(axis=axis)


class _Tracker:
    def __init__(self, grid):
        self.grid = [float(g) for g in grid]
        self.feasible = [-np.inf] * len(self.grid)
        size = 4 * _BUCKETS_PER_UNIT
        self._ymax = np.full(size, -np.inf)
        self._xmin = np.full(size, np.inf)

    def update(self, cons: np.ndarray, vals: np.ndarray) -> None:
        for i, g in enumerate(self.grid):
            mask = cons <= g + 1e-12
            if mask.any():
                best = float(vals[mask].max())
                if best > self.feasible[i]:
                    self.feasible[i] = best
        bi = np.minimum((cons * _BUCKETS_PER_UNIT).astype(int), len(self._ymax) - 1)
        np.maximum.at(self._ymax, bi, vals)
        vi = np.minimum((vals * _BUCKETS_PER_UNIT).astype(int), len(self._xmin) - 1)
        np.minimum.at(self._xmin, vi, cons)

    def finish(self) -> None:
        pts = [(0.0, 0.0)]
        for i, y in enumerate(self._ymax):
            if np.isfinite(y):
                pts.append(((i + 1) / _BUCKETS_PER_UNIT, float(y)))
        for j, x in enumerate(self._xmin):
            if np.isfinite(x):
                pts.append((float(x), j / _BUCKETS_PER_UNIT))
        self.envelope = _concave_majorant(pts)

    def env_value(self, x: float) -> float:
        pts = self.envelope
        x = float(x)
        if x >= pts[-1][0]:
            return pts[-1][1]
        for (x1, y1), (x2, y2) in zip(pts, pts[1:]):
            if x1 <= x <= x2:
                if x2 == x1:
                    return max(y1, y2)
                return y1 + (y2 - y1) * (x - x1) / (x2 - x1)
        return pts[0][1]

    def feas_value(self, x) -> float:
        return self.feasible[self.grid.index(float(x))]


def _concave_majorant(points):
    """Nondecreasing concave envelope vertices of a 2-D point cloud."""
    pts = sorted(set(points))
    best = -np.inf
    stairs = []
    for x, y in pts:
        if y > best:
            best = y
            stairs.append((x, y))
    hull = []
    for p in stairs:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (p[1] - y1) >= (p[0] - x1) * (y2 - y1):
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def ib_batch(px, pygx, h_row, py, q, beta_flat):
    """Run alternating maximization to a fixed point for each (init, beta).

    Returns the final channels and per-run convergence flags; a run counts
    as converged when its Lagrangian objective moved less than OBJ_TOL in
    the last iteration.
    """
    beta = beta_flat[:, None, None]
    prev_obj = np.full(len(beta_flat), np.inf)
    obj_delta = np.full(len(beta_flat), np.inf)
    qt, qty = _marginals(q, px, pygx)
    for _ in range(MAX_ITERS):
        qt_safe = np.maximum(qt, 1e-300)
        qygt = qty / qt_safe[:, :, None]
        log_qygt = np.log(np.maximum(qygt, 1e-300))
        cross = np.einsum("xy,nty->nxt", pygx, log_qygt)
        kl = np.maximum(-h_row[None, :, None] - cross, 0.0)
        logits = np.log(qt_safe)[:, None, :] - beta * kl
        logits -= logits.max(axis=2, keepdims=True)
        qn = np.exp(logits)
        qn /= qn.sum(axis=2, keepdims=True)
        q = qn
        qt, qty = _marginals(q, px, pygx)
        ix, iy = _channel_scores(q, px, py, qt, qty)
        obj = ix - beta_flat * iy
        obj_delta = np.abs(obj - prev_obj)
        prev_obj = obj
        if obj_delta.max() < OBJ_TOL:
            break
    return q, obj_delta < OBJ_TOL


def pick_witness(sweep, budget_of, x: float):
    best = None
    for ch in sweep.channels:
        if budget_of(ch) <= x + FEAS_SLACK:
            if best is None or ch.info_y > best.info_y:
                best = ch
    return best


class BruteForceReference:
    """Exhaustive sweep over quantized 3-cluster channels for a 3-row pmf."""

    def __init__(self, pmat, comp_grid, cons_grid, step=32):
        pmat = np.asarray(pmat, dtype=float)
        if pmat.shape[0] != 3:
            raise ValueError("reference expects exactly three input symbols")
        px = pmat.sum(axis=1)
        py = pmat.sum(axis=0)
        hy = -_nplogp(py, axis=0)

        rows = np.array(list(_compositions(step, 3)), dtype=float) / step
        nrows = len(rows)
        row_plogp = _nplogp(rows, axis=1)
        firsts = np.nonzero((np.diff(rows, axis=1) <= 0).all(axis=1))[0]
        idx2 = np.repeat(np.arange(nrows), nrows)
        idx3 = np.tile(np.arange(nrows), nrows)
        r2 = rows[idx2]
        r3 = rows[idx3]
        s2 = row_plogp[idx2]
        s3 = row_plogp[idx3]

        self.compressed = _Tracker(comp_grid)
        self.constrained = _Tracker(cons_grid)
        for f in firsts:
            r1 = rows[f]
            qt = px[0] * r1[None, :] + px[1] * r2 + px[2] * r3
            ht = -_nplogp(qt, axis=1)
            ix = px[0] * row_plogp[f] + px[1] * s2 + px[2] * s3 + ht
            pty = (r1[None, :, None] * pmat[0][None, None, :]
                   + r2[:, :, None] * pmat[1][None, None, :]
                   + r3[:, :, None] * pmat[2][None, None, :])
            hty = -_nplogp(pty, axis=(1, 2))
            iy = ht + hy - hty
            ix = np.maximum(ix, 0.0)
            iy = np.maximum(iy, 0.0)
            self.compressed.update(ix, iy)
            self.constrained.update(np.maximum(ix - iy, 0.0), iy)
        self.compressed.finish()
        self.constrained.finish()


def two_point_mixtures(pmat, grid: int = 2049, rows: int = 32):
    """Vertices of the compressed and constrained envelopes of every
    two-point mixture of posteriors on a grid, with i_x and i_y in bits.

    For a binary Z1 with P(Z1 = 0) = p0, a summary is a mixture of
    posteriors q = P(Z1 = 0 | T) with mean p0, and two posteriors a <= p0 <= b
    suffice.  The posteriors run over a cosine grid on [0, 1] with p0
    added; every pair is scored, ``rows`` left posteriors at a time, and
    only each batch's envelope vertices are kept.
    """
    pmat = np.asarray(pmat, dtype=float)
    if pmat.shape[0] != 2:
        raise ValueError("reference expects exactly two input symbols")
    px = pmat.sum(axis=1)
    p0 = px[0] / px.sum()
    cond = pmat / px[:, None]
    q = np.union1d((1 - np.cos(np.linspace(0.0, np.pi, grid))) / 2, [p0])
    hq = -_nplogp(np.stack([q, 1 - q], axis=1), axis=1)
    hy = -_nplogp(q[:, None] * cond[0] + (1 - q)[:, None] * cond[1], axis=1)
    mid = int(np.searchsorted(q, p0))
    b = q[None, mid:]
    kept = ([], [])
    for start in range(0, mid + 1, rows):
        a = q[start:min(start + rows, mid + 1), None]
        w = np.where(b > a, (b - p0) / np.where(b > a, b - a, 1.0), 1.0)
        sl = slice(start, start + len(a))
        ix = hq[mid] - w * hq[sl, None] - (1 - w) * hq[None, mid:]
        iy = hy[mid] - w * hy[sl, None] - (1 - w) * hy[None, mid:]
        ix, iy = np.maximum(ix, 0.0).ravel(), np.maximum(iy, 0.0).ravel()
        # i_x = i_y, as when T reveals a part of Z1 that Z2 determines, comes
        # out a few ulps apart: such a rate is 0.
        rate = np.where(ix - iy > 1e-12, ix - iy, 0.0)
        for out, xs in zip(kept, (ix, rate)):
            order = np.lexsort((-iy, xs))
            xs, ys = xs[order], iy[order]
            top = ys > np.maximum.accumulate(np.concatenate(([-1.0], ys[:-1])))
            out.extend(_concave_majorant(list(zip(xs[top].tolist(), ys[top].tolist()))))
    return tuple(_concave_majorant([(0.0, 0.0), *pts]) for pts in kept)


def majorant_value(pts, x: float) -> float:
    """Value at x >= 0 of the curve through majorant vertices ``pts``."""
    k = bisect.bisect_right(pts, (x, math.inf))
    if k == len(pts):
        return pts[-1][1]
    (x1, y1), (x2, y2) = pts[k - 1], pts[k]
    return y1 + (y2 - y1) * (x - x1) / (x2 - x1)


def iter_rgs(n: int) -> Iterator[tuple[int, ...]]:
    """Yield all set partitions of range(n) as restricted growth strings.

    A restricted growth string assigns block label a[i] to element i with
    a[0] = 0 and a[i] <= max(a[:i]) + 1, which enumerates each partition
    exactly once.
    """
    if n < 1:
        return
    a = [0] * n
    b = [0] * n  # b[i] = max(a[:i+1]) running prefix maximum
    while True:
        yield tuple(a)
        # increment from the right, respecting the growth constraint
        i = n - 1
        while i > 0 and a[i] == b[i - 1] + 1:
            i -= 1
        if i == 0:
            return
        a[i] += 1
        b[i] = max(b[i - 1], a[i])
        for j in range(i + 1, n):
            a[j] = 0
            b[j] = b[i]


def labels_to_masks(labels: Sequence[int]) -> list[int]:
    nblocks = max(labels) + 1
    masks = [0] * nblocks
    for i, lab in enumerate(labels):
        masks[lab] |= 1 << i
    return masks


def _block_entropy(source: SourceSpec, mask: int):
    if isinstance(source, HypergraphicalSource):
        return source.entropy_of_mask(mask)
    users = [u for i, u in enumerate(source.users) if mask >> i & 1]
    return entropy(source, users)


def _refines(fine, coarse) -> bool:
    return all(any(b <= c for c in coarse) for b in fine)


def mmi_two_pass(source: SourceSpec, cap: int = DEFAULT_USER_CAP) -> MmiResult:
    """Minimize I_P over all partitions with at least two blocks, in two passes."""
    if cap > HARD_USER_CAP:
        raise ValidationError(f"cap {cap} exceeds hard maximum {HARD_USER_CAP}")
    n = len(source.users)
    if n > cap:
        raise ResourceCapError(f"{n} users exceed partition enumeration cap {cap}")
    exact = isinstance(source, HypergraphicalSource)

    ent_cache: dict = {}

    def block_h(mask: int):
        h = ent_cache.get(mask)
        if h is None:
            h = _block_entropy(source, mask)
            ent_cache[mask] = h
        return h

    total = block_h((1 << n) - 1)

    def info(masks: list[int]):
        acc = sum(block_h(m) for m in masks)
        return (acc - total) / (len(masks) - 1)

    # Two passes: find the minimum, then collect minimizers (exact equality
    # for rational sources, 1e-9 tie tolerance for floats).
    best = None
    for labels in iter_rgs(n):
        masks = labels_to_masks(labels)
        if len(masks) < 2:
            continue
        value = info(masks)
        if best is None or value < best:
            best = value
    assert best is not None
    minimizer_masks = []
    for labels in iter_rgs(n):
        masks = labels_to_masks(labels)
        if len(masks) < 2:
            continue
        value = info(masks)
        if value == best if exact else abs(value - best) <= FLOAT_TIE_TOL:
            minimizer_masks.append(masks)
    minimizers = tuple(_canonical_partition(source, m) for m in minimizer_masks)
    finest = max(minimizers, key=lambda p: (len(p), [sorted(b) for b in p]))
    for other in minimizers:
        if not _refines(finest, other):
            raise InternalCheckError(
                "finest minimizer does not refine a co-minimizer; "
                f"finest={finest} other={other}"
            )
    return MmiResult(best, finest, minimizers)


def mmi_bell(source: HypergraphicalSource) -> MmiResult:
    """The one-pass integer scan of all Bell(n) partitions that ``mmi`` ran
    on hypergraph sources before the Newton engine, kept unchanged; about
    20 times faster than ``mmi_two_pass`` at 9 users."""
    h = entropy_table(source)
    value, found = _minimize_exact(h, iter_partitions(len(source.users)), source.denominator)
    minimizers = tuple(_canonical_partition(source, m) for m in found)
    finest = max(minimizers, key=lambda p: (len(p), [sorted(b) for b in p]))
    return MmiResult(value, finest, minimizers)


def simplex_min(
    c: Sequence[Fraction],
    rows: Sequence[Sequence[Fraction]],
    rhs: Sequence[Fraction],
) -> LpSolution:
    """Minimize c.x over {A x <= b, x >= 0}; requires b >= 0."""
    n = len(c)
    m = len(rows)
    if len(rhs) != m or any(len(r) != n for r in rows):
        raise ValidationError("inconsistent LP dimensions")
    b = [Fraction(v) for v in rhs]
    if any(v < 0 for v in b):
        raise ValidationError("simplex_min needs nonnegative right-hand sides")

    # Tableau columns: n structural, m slack, then the rhs.
    width = n + m + 1
    tab = []
    for i, row in enumerate(rows):
        line = [Fraction(v) for v in row] + [Fraction(0)] * m + [b[i]]
        line[n + i] = Fraction(1)
        tab.append(line)
    obj = [Fraction(v) for v in c] + [Fraction(0)] * (m + 1)
    basis = list(range(n, n + m))

    for _ in range(_MAX_PIVOTS):
        enter = -1
        for j in range(n + m):
            if obj[j] < 0:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        best = None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                ratio = tab[i][width - 1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            raise InternalCheckError("LP is unbounded below")
        piv = tab[leave][enter]
        prow = tab[leave]
        if piv != 1:
            for j in range(width):
                prow[j] /= piv
        for i in range(m):
            if i == leave:
                continue
            f = tab[i][enter]
            if f:
                line = tab[i]
                for j in range(width):
                    if prow[j]:
                        line[j] -= f * prow[j]
        f = obj[enter]
        if f:
            for j in range(width):
                if prow[j]:
                    obj[j] -= f * prow[j]
        basis[leave] = enter
    else:
        raise InternalCheckError("simplex pivot budget exhausted")

    x = [Fraction(0)] * (n + m)
    for i, var in enumerate(basis):
        x[var] = tab[i][width - 1]
    value = sum((ci * xi for ci, xi in zip(c, x[:n])), Fraction(0))
    # Reduced cost of slack i is -dual_i (slack has zero objective weight).
    duals = tuple(-obj[n + i] for i in range(m))
    return LpSolution(value, tuple(x[:n]), duals)


def duality_upper_bound(cs_upper: CapacityCurve, cap, alpha):
    """Largest g in [0, min(alpha, cap)] with g <= cs_upper(alpha - g).

    Splitting the entropy budget between the key and the discussion turns
    any valid bound on the rate-constrained capacity into a budget-domain
    bound.  The crossing is solved exactly on the piecewise-linear curve.
    """
    if alpha < 0:
        raise ValidationError("budget must be nonnegative")
    hi = min(alpha, cap)
    if hi <= 0:
        return hi * 0
    if hi <= cs_upper.value_at(alpha - hi):
        return hi
    # g -> U(alpha - g) - g strictly decreases, is >= 0 at g = 0 and < 0 at
    # hi, so a unique crossing lies in one linear piece of the curve.
    candidates = {alpha - x for x, _ in cs_upper.points}
    grid = sorted({g for g in candidates if 0 < g < hi} | {hi * 0, hi})
    lo = grid[0]
    for g in grid[1:]:
        if g <= cs_upper.value_at(alpha - g):
            lo = g
        else:
            u_lo = cs_upper.value_at(alpha - lo)
            u_hi = cs_upper.value_at(alpha - g)
            slope = (u_hi - u_lo) / (g - lo)
            crossing = (u_lo - slope * lo) / (1 - slope)
            return crossing
    raise InternalCheckError("no crossing found for the duality bound")


def alpha_s_lower_bound(cs_upper: CapacityCurve, cap):
    """Bound r_s + cap on the budget needed to saturate, where r_s is the
    smallest rate at which the supplied curve reaches the cap.  None when the
    curve never gets there."""
    if cs_upper.cap() < cap:
        return None
    for (x1, y1), (x2, y2) in zip(cs_upper.points, cs_upper.points[1:]):
        if y2 >= cap:
            slope = (y2 - y1) / (x2 - x1)
            r_sat = x1 if y1 >= cap else x1 + (cap - y1) / slope
            return r_sat + cap
    # single breakpoint curve already at cap
    return cs_upper.points[0][0] + cap


def partition_coefficients(source: HypergraphicalSource) -> list[tuple[Fraction, ...]]:
    """Rows I_P(f) = sum_e row[e] * f_e per partition with >= 2 blocks, rgs order."""
    rows = []
    for labels in iter_rgs(len(source.users)):
        masks = labels_to_masks(labels)
        if len(masks) < 2:
            continue
        rows.append(tuple(
            w * (sum(1 for bm in masks if bm & emask) - 1) / (len(masks) - 1)
            for emask, w in zip(source.edge_masks(), source.weights)))
    return rows


def enumerate_subsets(source: HypergraphicalSource, coeffs):
    """All 0/1 edge subsets as (entropy, value, mask) points, Gray-code order.

    Skipped (returns None) when 2^|E| times the partition count would blow
    the operation budget; the LP search already determines the curve.
    """
    m = len(source.weights)
    if m > EDGE_CAP:
        raise ResourceCapError(f"{m} edges exceed the subset enumeration cap {EDGE_CAP}")
    if (1 << m) * max(1, len(coeffs)) > _SUBSET_OP_BUDGET:
        return None
    weights = source.weights
    vals = [Fraction(0)] * len(coeffs)
    h = Fraction(0)
    mask = 0
    points = [(Fraction(0), Fraction(0), 0)]
    for i in range(1, 1 << m):
        bit = (i & -i).bit_length() - 1
        mask ^= 1 << bit
        sign = 1 if mask >> bit & 1 else -1
        h += sign * weights[bit]
        for p, row in enumerate(coeffs):
            cf = row[bit]
            if cf:
                vals[p] += sign * cf
        points.append((h, min(vals) if vals else Fraction(0), mask))
    return points


def _dot(row: Sequence[Fraction], f: Sequence[Fraction]) -> Fraction:
    total = Fraction(0)
    for a, b in zip(row, f):
        if a and b:
            total += a * b
    return total


def best_restriction(
    coeffs: list[tuple[Fraction, ...]],
    weights: Sequence[Fraction],
    alpha: Fraction,
    seed_active: list[int],
):
    """Maximize min_P I_P(f) s.t. H(f) <= alpha, 0 <= f <= 1.

    Cutting-plane loop: solve with a working set of partition constraints,
    then add the most violated partition until none is violated.  Returns
    (value, f, slope) where slope is a subgradient of the value in alpha,
    taken from the budget-row dual.
    """
    m = len(weights)
    active = list(seed_active)
    for _ in range(len(coeffs) + 2):
        rows = []
        rhs = []
        for p in active:
            rows.append([Fraction(1)] + [-cf for cf in coeffs[p]])
            rhs.append(Fraction(0))
        budget_row = len(rows)
        rows.append([Fraction(0)] + [Fraction(w) for w in weights])
        rhs.append(alpha)
        for e in range(m):
            box = [Fraction(0)] * (m + 1)
            box[1 + e] = Fraction(1)
            rows.append(box)
            rhs.append(Fraction(1))
        c = [Fraction(-1)] + [Fraction(0)] * m
        sol = simplex_min(c, rows, rhs)
        t_star = sol.x[0]
        f_star = sol.x[1:]
        worst_p = -1
        worst = None
        for p, row in enumerate(coeffs):
            val = _dot(row, f_star)
            if worst is None or val < worst:
                worst = val
                worst_p = p
        if worst is not None and worst < t_star:
            active.append(worst_p)
            continue
        slope = -sol.duals[budget_row]
        return t_star, tuple(f_star), slope
    raise InternalCheckError("cutting-plane loop failed to converge")


class Gf2Basis:
    """Mutable basis; rows kept reduced against each other (pivot per row)."""

    __slots__ = ("_rows",)

    def __init__(self, rows: Iterable[int] = ()):  # rows: int bitmasks
        self._rows: dict[int, int] = {}
        for r in rows:
            self.add(r)

    def reduce(self, v: int) -> int:
        rows = self._rows
        while v:
            p = v.bit_length() - 1
            r = rows.get(p)
            if r is None:
                return v
            v ^= r
        return 0

    def add(self, v: int) -> bool:
        """Insert v; False if it was already in the span."""
        v = self.reduce(v)
        if not v:
            return False
        p = v.bit_length() - 1
        # back-eliminate so reduce() stays a single downward sweep
        for q, r in self._rows.items():
            if r >> p & 1:
                self._rows[q] = r ^ v
        self._rows[p] = v
        return True

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0

    @property
    def rank(self) -> int:
        return len(self._rows)

    def copy(self) -> "Gf2Basis":
        b = Gf2Basis()
        b._rows = dict(self._rows)
        return b


def complement_units(basis: Gf2Basis, width: int) -> list[int]:
    """Unit vectors that extend the basis to the full space, low bit first."""
    b = basis.copy()
    out = []
    for k in range(width):
        if b.add(1 << k):
            out.append(1 << k)
    return out


def _forest_path(adj, u, v):
    """Elements on the u..v path of one forest; None if disconnected."""
    if u == v:
        return []
    prev = {u: (None, None)}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        for (y, elem) in adj[x]:
            if y not in prev:
                prev[y] = (x, elem)
                if y == v:
                    path = []
                    while y != u:
                        x2, e2 = prev[y]
                        path.append(e2)
                        y = x2
                    return path
                queue.append(y)
    return None


def partition_into_forests(nv: int, elements: Sequence[tuple[int, int]], k: int):
    """Knuth-style matroid partition of multigraph edges into k forests.

    Inserts greedily with BFS augmentation over the exchange graph (arcs
    from an element to the members of the circuit it closes).  An element
    with no augmenting path can never be placed later, so it is skipped
    for good.  Returns (forests as element-index sets, owner map).
    """
    adj = [{v: [] for v in range(nv)} for _ in range(k)]
    owner: dict[int, int] = {}

    def insert(y: int) -> bool:
        parent: dict[int, int | None] = {y: None}
        queue = deque([y])
        while queue:
            x = queue.popleft()
            ux, vx = elements[x]
            for i in range(k):
                path = _forest_path(adj[i], ux, vx)
                if path is None:
                    cur, fi = x, i
                    while True:
                        old = owner.get(cur)
                        cu, cv = elements[cur]
                        if old is not None:
                            adj[old][cu] = [(w, e) for (w, e) in adj[old][cu] if e != cur]
                            adj[old][cv] = [(w, e) for (w, e) in adj[old][cv] if e != cur]
                        adj[fi][cu].append((cv, cur))
                        adj[fi][cv].append((cu, cur))
                        owner[cur] = fi
                        p = parent[cur]
                        if p is None:
                            return True
                        cur, fi = p, old
                else:
                    for z in path:
                        if z not in parent:
                            parent[z] = x
                            queue.append(z)
        return False

    for y in range(len(elements)):
        insert(y)
    forests = [set() for _ in range(k)]
    for elem, f in owner.items():
        forests[f].add(elem)
    return forests, owner


def max_spanning_tree_packing(nv: int, elements: Sequence[tuple[int, int]]):
    """Largest k with k edge-disjoint spanning trees; returns their element
    sets.  Retries the partition from scratch for each k and keeps the last
    full packing."""
    best: list[set[int]] = []
    if nv < 2:
        return best
    k = 1
    upper = len(elements) // (nv - 1)
    while k <= upper:
        forests, _ = partition_into_forests(nv, elements, k)
        if all(len(f) == nv - 1 for f in forests):
            best = forests
            k += 1
        else:
            break
    return best


def verify(instance, scheme) -> VerificationReport:
    """Exact checks: per-user key recovery, key uniformity, transcript/key
    independence."""
    validate_scheme(instance, scheme)
    a_rows = [row for row, _ in scheme.transcript]
    a_basis = Gf2Basis(a_rows)
    b_basis = Gf2Basis(scheme.key)
    key_uniform = b_basis.rank == len(scheme.key)
    joint = a_basis.copy()
    added = sum(1 for row in scheme.key if joint.add(row))
    perfectly_secret = added == b_basis.rank

    recoverable = {}
    for user in instance.source.users:
        basis = a_basis.copy()
        obs = instance.user_mask(user)
        k = 0
        while obs:
            if obs & 1:
                basis.add(1 << k)
            obs >>= 1
            k += 1
        recoverable[user] = all(basis.contains(row) for row in scheme.key)
    return VerificationReport(
        recoverable=recoverable,
        perfectly_secret=perfectly_secret,
        key_uniform=key_uniform,
        key_bits=len(scheme.key),
        transcript_bits=len(scheme.transcript),
    )


def omniscience_reached(instance, transcript) -> bool:
    """Whether every user, from own bits and the transcript rows, spans the
    whole source space (the binning ``achieved`` flag)."""
    m = instance.total_bits
    a_basis = Gf2Basis(row for row, _ in transcript)
    achieved = True
    for user in instance.source.users:
        basis = a_basis.copy()
        obs = instance.user_mask(user)
        for k in range(m):
            if obs >> k & 1:
                basis.add(1 << k)
        if basis.rank != m:
            achieved = False
            break
    return achieved


def binning_row(rng, obs: int, m: int) -> int:
    """A random row on the bits of ``obs`` among the first ``m``, one draw per bit."""
    bits = [k for k in range(m) if obs >> k & 1]
    row = 0
    for b in bits:
        if rng.getrandbits(1):
            row |= 1 << b
    return row
