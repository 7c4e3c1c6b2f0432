"""Piecewise-linear capacity curves.

A ``CapacityCurve`` is a concave, non-decreasing, piecewise-linear function
given by its breakpoints, starting at x = 0 and constant past the last
breakpoint.  The invariants are validated at construction (exactly for
rational coordinates, to 1e-9 for floats), so any curve object in existence
has already passed the checker; ``check_curve`` re-runs the validation for
callers that want an explicit verdict.

``upper_concave_envelope`` builds the least concave majorant of a finite
point cloud, the curve traced by time-sharing between operating points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import ValidationError

__all__ = ["CapacityCurve", "upper_concave_envelope", "check_curve", "constant_curve"]

_FLOAT_TOL = 1e-9


def _is_exact(value) -> bool:
    return isinstance(value, (Fraction, int))


@dataclass(frozen=True)
class CapacityCurve:
    """Breakpoint representation of a concave non-decreasing curve."""

    points: tuple[tuple[Fraction | float, Fraction | float], ...]

    def __post_init__(self):
        _validate_points(self.points)

    @property
    def exact(self) -> bool:
        return all(_is_exact(x) and _is_exact(y) for x, y in self.points)

    def value_at(self, x):
        """Evaluate the curve; constant beyond the last breakpoint."""
        pts = self.points
        if not x >= 0:
            raise ValidationError("curves are defined for x >= 0")
        if x >= pts[-1][0]:
            return pts[-1][1]
        lo, hi = 0, len(pts) - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if pts[mid][0] <= x:
                lo = mid
            else:
                hi = mid
        (x1, y1), (x2, y2) = pts[lo], pts[hi]
        t = (x - x1) / (x2 - x1)
        return y1 + t * (y2 - y1)

    def cap(self):
        """The saturation value (last breakpoint height)."""
        return self.points[-1][1]

    def saturation_x(self):
        """Smallest x at which the curve reaches its cap."""
        return self.points[-1][0]


def _validate_points(points: Sequence[tuple]) -> None:
    if not points:
        raise ValidationError("a curve needs at least one breakpoint")
    if any(isinstance(v, float) and not math.isfinite(v) for pt in points for v in pt):
        raise ValidationError("curve coordinates must be finite")
    exact = all(_is_exact(x) and _is_exact(y) for x, y in points)
    tol = 0 if exact else _FLOAT_TOL
    x0, y0 = points[0]
    if abs(x0) > tol:
        raise ValidationError(f"curve must start at x = 0, got {x0}")
    if y0 < -tol:
        raise ValidationError("curve intercept must be nonnegative")
    prev_slope = None
    for (x1, y1), (x2, y2) in zip(points, points[1:]):
        if not x2 > x1:
            raise ValidationError("breakpoint x values must strictly increase")
        if y2 < y1 - tol:
            raise ValidationError("curve must be non-decreasing")
        slope = (y2 - y1) / (x2 - x1)
        if prev_slope is not None:
            scale = max(1.0, abs(float(prev_slope))) if not exact else 0
            if slope > prev_slope + (tol * scale if not exact else 0):
                raise ValidationError("curve must be concave (slopes non-increasing)")
        prev_slope = slope


def check_curve(curve: CapacityCurve) -> bool:
    """Re-validate all curve invariants; raises ValidationError on failure."""
    _validate_points(curve.points)
    return True


def constant_curve(cap) -> CapacityCurve:
    """The flat curve y = cap for all x >= 0."""
    if cap < 0:
        raise ValidationError("cap must be nonnegative")
    return CapacityCurve(((type(cap)(0) if not isinstance(cap, int) else Fraction(0), cap),))


def upper_concave_envelope(points: Iterable[tuple]) -> CapacityCurve:
    """Least concave majorant of the points, truncated at its maximum.

    The input must include a point at x = 0.  Points below the envelope and
    any flat or declining tail after the maximum are dropped; collinear
    breakpoints are merged.  A point that some point at a smaller or equal x
    matches or beats in y is dropped before the hull is built: it cannot be
    a vertex of the non-decreasing curve, and with float tolerances a
    near-duplicate of a vertex could otherwise displace it.
    """
    # x ascending, y descending: the staircase keeps the highest point of
    # each x and drops the rest.
    pts = sorted(points, key=lambda p: (p[0], -p[1]))
    if not pts:
        raise ValidationError("no points to envelope")
    if pts[0][0] < 0:
        raise ValidationError("envelope points need x >= 0")
    if pts[0][0] != 0:
        raise ValidationError("envelope needs a point at x = 0")
    exact = all(_is_exact(x) and _is_exact(y) for x, y in pts)
    eps = 0 if exact else 1e-12
    stairs = [pts[0]]
    for p in pts[1:]:
        if p[1] > stairs[-1][1]:
            stairs.append(p)

    hull: list[tuple] = []
    for p in stairs:
        while len(hull) >= 2:
            (xa, ya), (xb, yb) = hull[-2], hull[-1]
            # pop the middle point unless the slope strictly decreases there
            left = (yb - ya) * (p[0] - xb)
            right = (p[1] - yb) * (xb - xa)
            scale = 1 if exact else max(1.0, abs(float(left)), abs(float(right)))
            if right >= left - eps * scale:
                hull.pop()
            else:
                break
        hull.append(p)

    top = max(y for _, y in hull)
    tol = 0 if exact else _FLOAT_TOL * max(1.0, abs(float(top)))
    cut = next(i for i, (_, y) in enumerate(hull) if y >= top - tol)
    return CapacityCurve(tuple(hull[: cut + 1]))
