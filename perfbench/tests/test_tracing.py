"""Tests for the benchmark's tracer and its patch table.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import inspect
import os
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYERS, METHODS, METRICS, Tracer, skalc_modules  # noqa: E402

sys.path.insert(0, run.SRC)


def layer_publics() -> dict:
    """id -> (module, name) of every function a layer module exports."""
    out = {}
    for layer in LAYERS:
        module = sys.modules[f"skalc.{layer}"]
        names = getattr(module, "__all__", [n for n in vars(module) if not n.startswith("_")])
        for name in names:
            value = getattr(module, name, None)
            if inspect.isfunction(value) and value.__module__ == module.__name__:
                out[id(value)] = (module.__name__, name)
    return out


def test_install_leaves_no_unwrapped_reference_and_uninstall_restores():
    modules = skalc_modules()
    publics = layer_publics()
    before = {name: dict(vars(mod)) for name, mod in modules.items()}
    tracer = Tracer()
    with tracer:
        wrappers = {id(w) for _, _, _, w in tracer.patches}
        for name, mod in modules.items():
            for attr, value in vars(mod).items():
                assert id(value) not in publics, f"{name}.{attr} is still unwrapped"
        for layer, classes in METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(modules[f"skalc.{layer}"], cls_name)
                for meth in methods:
                    assert id(cls.__dict__[meth]) in wrappers
        sites = {(owner.__name__, attr) for owner, attr, _, _ in tracer.patches}
        for site in [("skalc.capacity", "simplex_min"), ("skalc.omniscience", "simplex_min"),
                     ("skalc.cli", "mmi"), ("skalc.cli", "rco"), ("skalc.protocol_sim", "rco"),
                     ("skalc.mmi", "iter_partitions"), ("skalc.capacity", "iter_partitions")]:
            assert site in sites
    assert not tracer.patches
    for name, mod in modules.items():
        for attr, value in before[name].items():
            assert vars(mod)[attr] is value, f"{name}.{attr} not restored"
    for layer, classes in METHODS.items():
        for cls_name, methods in classes.items():
            cls = getattr(modules[f"skalc.{layer}"], cls_name)
            for meth in methods:
                assert id(cls.__dict__[meth]) not in wrappers


# Layers each workload's "why" names (must show work) and the ones it
# bypasses (must read zero), on the first jobs of the default seed.
EXPECT = {
    "exact-partition": (
        2, ["mmi.calls", "mmi.partitions.mmi", "mmi.self_s", "lp.calls.omniscience", "lp.self_s",
            "omniscience.calls", "source_model.entropy.calls"],
        ["two_user.sweep.calls", "gf2.add.calls", "capacity.lower_bound.calls",
         "protocol_sim.bits", "lp.calls.capacity", "mmi.partitions.capacity"]),
    "budget-curves": (
        2, ["capacity.lower_bound.calls", "capacity.lower_bound.self_s", "lp.calls.capacity",
            "mmi.partitions.capacity", "curves.envelope.calls", "capacity.lp_calls_per_curve"],
        ["two_user.sweep.calls", "gf2.add.calls", "protocol_sim.bits", "omniscience.calls"]),
    "two-user-sweep": (
        1, ["two_user.sweep.calls", "two_user.runs", "two_user.converged_ratio",
            "two_user.sweep.self_s", "curves.envelope.calls"],
        ["lp.self_s", "mmi.partitions.mmi", "gf2.add.calls", "capacity.lower_bound.calls",
         "omniscience.calls"]),
    "linear-schemes": (
        2, ["gf2.add.calls", "gf2.reduce.calls", "protocol_sim.tree.self_s",
            "protocol_sim.binning.self_s", "protocol_sim.bits", "protocol_sim.verify.self_s"],
        ["two_user.sweep.calls", "capacity.lower_bound.calls", "mmi.partitions.capacity"]),
}


@pytest.mark.parametrize("name", sorted(EXPECT))
def test_short_traced_run_hits_named_layers_only(name, tmp_path):
    count, busy, idle = EXPECT[name]
    jobs, argvs, _ = run.setup(name, workloads.DEFAULT_SEED, str(tmp_path / "jobs"))
    plain, plain_wall = run.job_loop(argvs, count=count)
    tracer = Tracer()
    with tracer:
        traced, traced_wall = run.job_loop(argvs, count=count,
                                           before_job=lambda k: setattr(tracer, "job_id", k))
    assert [r[1] for r in traced] == [0] * count
    assert [r[2] for r in plain] == [r[2] for r in traced]
    metrics = tracer.layer_metrics(traced_wall / plain_wall)
    assert list(metrics) == list(METRICS)
    for key in busy:
        assert metrics[key] > 0, key
    for key in idle:
        assert metrics[key] == 0, key
    # Self times partition each job's root span exactly.
    for job in range(count):
        spans = [i for i in range(len(tracer.name)) if tracer.job[i] == job]
        roots = [i for i in spans if tracer.parent[i] < 0]
        assert [tracer.names[tracer.name[i]] for i in roots] == ["cli.main"]
        root = roots[0]
        total = sum(tracer.self_time[i] for i in spans)
        assert total == pytest.approx(tracer.end[root] - tracer.start[root], rel=1e-6)
