"""The two-user envelope prefilter leaves every envelope unchanged."""

import numpy as np
import pytest

from skalc.curves import upper_concave_envelope
from skalc.source_model import parse_source
from skalc.two_user import _envelope, run_sweep

import _sources

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def _unfiltered(xs, ys):
    return upper_concave_envelope([(0, 0), *zip(xs.tolist(), ys.tolist())])


# Coordinates from a small lattice give ties in x and equal y values; a
# jitter of a few ulps makes near-duplicates and near-collinear triples.
_coord = st.builds(lambda k, ulps: k / 8 + ulps * 2.0 ** -52,
                   st.integers(0, 16), st.integers(-3, 3)).map(lambda v: max(v, 0.0))


@st.composite
def _clouds(draw):
    n = draw(st.integers(1, 40))
    xs = draw(st.lists(_coord, min_size=n, max_size=n))
    ys = draw(st.lists(_coord, min_size=n, max_size=n))
    for a in range(draw(st.integers(0, 3))):
        # a near-collinear triple on a random chord
        x0, slope, step = draw(_coord), draw(_coord), draw(st.integers(1, 8)) / 64
        for k in range(3):
            xs.append(x0 + k * step)
            ys.append(slope * k * step + draw(st.integers(-2, 2)) * 2.0 ** -50)
    for _ in range(draw(st.integers(0, 4))):
        # a near-duplicate of a drawn point, a few ulps off in x and y
        i = draw(st.integers(0, len(xs) - 1))
        xs.append(xs[i] * (1 + draw(st.integers(-3, 3)) * 2.0 ** -52))
        ys.append(ys[i] * (1 + draw(st.integers(-3, 3)) * 2.0 ** -52))
    zero = draw(st.sampled_from(("none", "x", "y", "both")))
    if zero in ("x", "both"):
        xs = [0.0] * len(xs)
    if zero in ("y", "both"):
        ys = [0.0] * len(ys)
    return np.array(xs), np.maximum(np.array(ys), 0.0)


@settings(max_examples=400)
@given(_clouds())
def test_prefilter_keeps_the_envelope(cloud):
    xs, ys = cloud
    assert _envelope(xs, ys).points == _unfiltered(xs, ys).points


def test_prefilter_keeps_sweep_envelopes(benchmark_two_user_sweeps):
    # The benchmark's pmfs take the binary sweep; these two take the
    # alternating maximization, whose cloud is mostly dominated points.
    ib_sweeps = [run_sweep(parse_source(src)) for src in (_sources.INTRO_PMF, _sources.HALF_PMF)]
    for sweep in benchmark_two_user_sweeps + ib_sweeps:
        ix = np.array([ch.info_x for ch in sweep.channels])
        iy = np.array([ch.info_y for ch in sweep.channels])
        for xs in (ix, np.maximum(ix - iy, 0.0)):
            assert _envelope(xs, iy).points == _unfiltered(xs, iy).points
