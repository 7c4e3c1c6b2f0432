import json

import pytest

try:
    from hypothesis import settings
except ImportError:  # property tests skip themselves without hypothesis
    pass
else:
    # One seeded profile for every property test; no deadline, since timings
    # on a small shared machine drift too much for one to mean anything.
    settings.register_profile("skalc", derandomize=True, deadline=None)
    settings.load_profile("skalc")

from skalc.source_model import parse_source

import _sources
from _benchmark import benchmark_jobs


@pytest.fixture
def example1():
    return parse_source(_sources.EXAMPLE1)


@pytest.fixture
def triangle():
    return parse_source(_sources.TRIANGLE)


@pytest.fixture
def star():
    return parse_source(_sources.STAR)


@pytest.fixture
def path3():
    return parse_source(_sources.PATH3)


@pytest.fixture
def intro_pmf():
    return parse_source(_sources.INTRO_PMF)


@pytest.fixture
def bit_pmf():
    return parse_source(_sources.BIT_PMF)


@pytest.fixture
def write_source(tmp_path):
    """Write a source dict to a JSON file and return its path as a string."""
    counter = iter(range(1000))

    def _write(data, name=None):
        path = tmp_path / (name or f"source{next(counter)}.json")
        path.write_text(json.dumps(data), encoding="utf-8")
        return str(path)

    return _write


@pytest.fixture(scope="session")
def benchmark_two_user_sweeps():
    """``run_sweep`` on every job of the seed-1 ``two-user-sweep`` benchmark
    pool, each at its job's seed."""
    from skalc.two_user import run_sweep

    return [run_sweep(parse_source(job.source), seed=int(job.argv[job.argv.index("--seed") + 1]))
            for job in benchmark_jobs("two-user-sweep")]
