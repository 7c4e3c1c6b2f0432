import math
import random
from fractions import Fraction as F

import pytest

from skalc.curves import CapacityCurve, check_curve, constant_curve, upper_concave_envelope
from skalc.errors import ValidationError

import _oracle


def test_basic_accessors():
    curve = CapacityCurve(((F(0), F(0)), (F(1), F(1)), (F(3), F(2))))
    assert curve.value_at(F(0)) == 0
    assert curve.value_at(F(1, 2)) == F(1, 2)
    assert curve.value_at(F(2)) == F(3, 2)
    assert curve.value_at(F(10)) == F(2)
    assert curve.cap() == F(2)
    assert curve.saturation_x() == F(3)
    assert curve.exact
    assert check_curve(curve)
    for x in (F(-1), math.nan):
        with pytest.raises(ValidationError):
            curve.value_at(x)


def test_constant_curve():
    curve = constant_curve(F(2))
    assert curve.points == ((F(0), F(2)),)
    assert curve.value_at(F(5)) == F(2)
    assert curve.saturation_x() == F(0)
    assert check_curve(curve)


@pytest.mark.parametrize("points", [
    ((F(1), F(0)),),                                    # x must start at 0
    ((F(0), F(0)), (F(1), F(2)), (F(2), F(5))),         # convex corner
    ((F(0), F(1)), (F(1), F(0))),                       # decreasing
    ((F(0), F(0)), (F(0), F(1))),                       # duplicate x
    (),                                                 # empty
    ((math.nan, math.nan),),                            # non-finite floats
    ((0.0, 0.0), (1.0, math.nan)),
    ((0.0, 0.0), (math.inf, 1.0)),
])
def test_invalid_curves_rejected(points):
    with pytest.raises(ValidationError):
        CapacityCurve(points)


def test_envelope_merges_collinear_and_flat_tail():
    env = upper_concave_envelope([(F(0), F(0)), (F(1), F(1)), (F(2), F(2)), (F(3), F(2))])
    assert env.points == ((F(0), F(0)), (F(2), F(2)))
    assert env.value_at(F(3)) == F(2)


def test_envelope_dominates_inputs():
    rng = random.Random(31)
    for _ in range(20):
        pts = [(F(0), F(0))]
        for _ in range(rng.randint(1, 12)):
            x = F(rng.randint(0, 40), rng.randint(1, 4))
            y = F(rng.randint(0, 20), rng.randint(1, 4))
            pts.append((x, y))
        env = upper_concave_envelope(pts)
        assert check_curve(env)
        for x, y in pts:
            assert env.value_at(x) >= y


def test_envelope_float_points():
    env = upper_concave_envelope([(0.0, 0.0), (0.5, 0.6), (1.0, 1.0)])
    assert not env.exact
    assert env.value_at(0.25) == pytest.approx(0.3)
    assert check_curve(env)


def test_envelope_keeps_a_vertex_over_its_dominated_near_duplicate():
    # The second point lies a hair right of and below the first; within the
    # 1e-12 slope tolerance it would pop the true vertex.
    env = upper_concave_envelope([(0.0, 0.0), (1.0, 1.0), (1.0 + 1e-13, 1.0 - 1e-13)])
    assert env.points == ((0.0, 0.0), (1.0, 1.0))


def test_envelope_matches_the_oracle_majorant_on_exact_clouds():
    # Lattice coordinates give repeated x values, equal y values and
    # collinear triples.
    rng = random.Random(77)
    for _ in range(300):
        pts = [(F(0), F(rng.randint(0, 4), 2))]
        for _ in range(rng.randint(0, 25)):
            pts.append((F(rng.randint(0, 12), rng.choice((1, 2, 3))),
                        F(rng.randint(0, 12), rng.choice((1, 2, 3)))))
        rng.shuffle(pts)
        majorant = _oracle._concave_majorant(pts)
        # The oracle keeps every rising point at x = 0; a curve starts at the
        # highest of them.
        while len(majorant) > 1 and majorant[1][0] == 0:
            majorant.pop(0)
        assert list(upper_concave_envelope(pts).points) == majorant
