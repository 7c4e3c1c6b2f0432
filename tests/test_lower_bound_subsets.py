"""No 0/1 edge subset lies above the lower-bound LP envelope.

The subset scan is the brute-force reference for ``lower_bound_curve``:
every subset is one feasible retention vector, so its point (entropy,
value) must lie on or below the exact LP curve.
"""

import random

import pytest

from skalc.capacity import lower_bound_curve
from skalc.source_model import parse_source

import _oracle
import _sources

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def _assert_subsets_below_envelope(src):
    curve = lower_bound_curve(src).curve
    points = _oracle.enumerate_subsets(src, _oracle.partition_coefficients(src))
    assert points is not None
    for h, v, mask in points:
        assert v <= curve.value_at(h), f"edge subset {mask:b} beats the LP at entropy {h}"
    return points


@pytest.mark.parametrize("name", ["EXAMPLE1", "TRIANGLE", "STAR", "PATH3", "OMNI"])
def test_fixture_subsets_below_envelope(name):
    _assert_subsets_below_envelope(parse_source(getattr(_sources, name)))


def test_example1_subset_attains_breakpoint():
    src = parse_source(_sources.EXAMPLE1)
    curve = lower_bound_curve(src).curve
    on_curve = {(h, v) for h, v, _ in _assert_subsets_below_envelope(src)}
    assert set(curve.points) <= on_curve


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6), m=st.integers(1, 10))
def test_random_subsets_below_envelope(seed, n, m):
    rng = random.Random(seed)
    _assert_subsets_below_envelope(parse_source(_sources.random_hypergraph(rng, n, m)))
