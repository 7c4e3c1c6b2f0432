"""Job pools of the ``perfbench`` workloads, for tests that check the code
paths the benchmark times on the inputs it times them on.

``perfbench/workloads.py`` is loaded from the checkout by path; nothing
under ``perfbench/`` imports from ``tests/``.
"""

from __future__ import annotations

import importlib.util
import pathlib
import sys

_NAME = "perfbench_workloads"


def _workloads():
    if _NAME not in sys.modules:
        path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location(_NAME, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[_NAME] = module  # dataclasses look their module up here
        spec.loader.exec_module(module)
    return sys.modules[_NAME]


def benchmark_jobs(name: str, cycles: int | None = None, seed: int | None = None) -> list:
    """The jobs of workload ``name`` at ``seed`` (by default the benchmark's
    default seed): the whole pool, or the groups of its first ``cycles``
    template cycles."""
    workloads = _workloads()
    workload = workloads.WORKLOADS[name]
    jobs = workloads.make_jobs(workload, workloads.DEFAULT_SEED if seed is None else seed)
    if cycles is not None:
        jobs = [job for job in jobs if job.group < cycles * workload.cycle]
    return jobs
