"""Outside-in tracer for the ``skalc`` modules.

``Tracer.install`` wraps every public function of each ``skalc`` module at
every module that holds a reference to it (``simplex_min`` in
``skalc.capacity`` and in ``skalc.omniscience``, ``rco`` in ``skalc.cli``
and ``skalc.protocol_sim``, ...), plus a few public methods at class level.
Nothing under ``src/`` is edited; ``uninstall`` puts every original back.

A span records its name, start, end, parent span and job id.  The span
name is ``<layer>.<function>``, with ``@<module>`` appended when the call
went through another module's reference, so calls can be split by caller.
Self time is a span's duration minus the time its child spans cover.
Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter, defaultdict

LAYERS = ("cli", "source_model", "mmi", "lp", "omniscience", "capacity",
          "curves", "two_user", "protocol_sim", "gf2")
METHODS = {
    "source_model": {"HypergraphicalSource": ("entropy_of_mask", "edge_masks")},
    "gf2": {"Gf2Basis": ("add", "reduce", "copy", "contains")},
    "curves": {"CapacityCurve": ("value_at",)},
}
ENTROPY = ("source_model.HypergraphicalSource.entropy_of_mask", "source_model.entropy",
           "source_model.conditional_entropy", "source_model.gacs_korner")

# Per-layer metrics in report order.
METRICS = (
    "cli.self_s",
    "source_model.self_s", "source_model.load_s", "source_model.entropy.calls",
    "source_model.entropy.self_s", "source_model.edge_masks.calls",
    "mmi.calls", "mmi.self_s", "mmi.partitions.mmi", "mmi.partitions.capacity", "mmi.enum_s",
    "lp.calls.omniscience", "lp.calls.capacity", "lp.self_s", "lp.cells",
    "omniscience.calls", "omniscience.self_s",
    "capacity.self_s", "capacity.lower_bound.calls", "capacity.lower_bound.self_s",
    "capacity.sandwich.self_s", "capacity.lp_calls_per_curve", "capacity.breakpoints_per_lp_call",
    "curves.self_s", "curves.envelope.calls", "curves.envelope.self_s", "curves.value_at.calls",
    "two_user.self_s", "two_user.sweep.calls", "two_user.sweep.self_s", "two_user.runs",
    "two_user.converged_ratio", "two_user.curve.self_s",
    "protocol_sim.self_s", "protocol_sim.tree.self_s", "protocol_sim.binning.self_s",
    "protocol_sim.verify.self_s", "protocol_sim.bits", "protocol_sim.binning.achieved_ratio",
    "gf2.self_s", "gf2.add.calls", "gf2.add.self_s", "gf2.reduce.calls", "gf2.reduce.self_s",
    "gf2.copy.calls", "gf2.add.useful_ratio",
    "trace.overhead_ratio",
)


def skalc_modules() -> dict:
    """Every loaded ``skalc`` module by name, importing the layer modules."""
    for layer in LAYERS:
        importlib.import_module(f"skalc.{layer}")
    return {name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == "skalc" or name.startswith("skalc."))}


def public_functions(module) -> dict:
    """Functions a layer module defines and exports."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return {n: getattr(module, n) for n in names
            if inspect.isfunction(getattr(module, n, None))
            and getattr(module, n).__module__ == module.__name__}


def _site(module_name: str) -> str:
    return module_name.rpartition(".")[2]


class Tracer:
    """Span recorder plus the patch table that feeds it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")
        self.counts: Counter = Counter()
        self.job_id = -1
        self._stack = [-1]
        self._covered = [0.0]
        self.patches: list[tuple[object, str, object, object]] = []

    # ------------------------------------------------------------ spans --

    def _open(self, nid: int, start: float) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.job.append(self.job_id)
        self.start.append(start)
        self.end.append(start)
        self.self_time.append(0.0)
        return idx

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn, hook=None):
        nid = self._name_id(name)
        stack, covered, perf = self._stack, self._covered, time.perf_counter

        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                return self._traced_gen(nid, name, fn(*args, **kwargs))
            wrapper = gen_wrapper
        else:
            def wrapper(*args, **kwargs):
                idx = self._open(nid, perf())
                stack.append(idx)
                covered.append(0.0)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = perf()
                    stack.pop()
                    child = covered.pop()
                    duration = t1 - self.start[idx]
                    self.end[idx] = t1
                    self.self_time[idx] = duration - child
                    covered[-1] += duration
                if hook is not None:
                    hook(self.counts, args, result)
                return result
        return functools.update_wrapper(wrapper, fn)

    def _traced_gen(self, nid: int, name: str, gen):
        """One span per generator; its time is the sum of its resumes, and
        each resume counts as covered time of the span that resumed it."""
        perf = time.perf_counter
        idx = self._open(nid, perf())
        yields = 0
        try:
            while True:
                self._stack.append(idx)
                self._covered.append(0.0)
                t0 = perf()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    t1 = perf()
                    self._stack.pop()
                    child = self._covered.pop()
                    self.end[idx] = t1
                    self.self_time[idx] += t1 - t0 - child
                    self._covered[-1] += t1 - t0
                yields += 1
                yield item
        finally:
            self.counts[f"{name}.yields"] += yields
            gen.close()

    # ---------------------------------------------------------- patches --

    def install(self) -> None:
        """Wrap the public surface; every reference in every skalc module."""
        modules = skalc_modules()
        originals = {}
        for layer in LAYERS:
            module = modules[f"skalc.{layer}"]
            for fname, fn in public_functions(module).items():
                originals[id(fn)] = (f"{layer}.{fname}", layer, fn)
        for mod_name, module in sorted(modules.items()):
            site = _site(mod_name)
            for attr, value in list(vars(module).items()):
                entry = originals.get(id(value))
                if entry is None or entry[2] is not value:
                    continue
                name, layer, fn = entry
                if site not in (layer, "skalc"):
                    name = f"{name}@{site}"
                self._patch(module, attr, fn, self._wrap(name, fn, HOOKS.get(entry[0])))
        for layer, classes in METHODS.items():
            module = modules[f"skalc.{layer}"]
            for cls_name, methods in classes.items():
                cls = getattr(module, cls_name)
                for meth in methods:
                    fn = cls.__dict__[meth]
                    name = f"{layer}.{cls_name}.{meth}"
                    self._patch(cls, meth, fn, self._wrap(name, fn, HOOKS.get(name)))

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self.patches.append((owner, attr, original, wrapper))

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # ----------------------------------------------------------- output --

    def write(self, path: str) -> None:
        """All spans as gzipped TSV: job, span, parent, name, start, end, self."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("job\tspan\tparent\tname\tstart\tend\tself\n")
            for i in range(len(self.name)):
                fh.write(f"{self.job[i]}\t{i}\t{self.parent[i]}\t{self.names[self.name[i]]}\t"
                         f"{self.start[i]:.9f}\t{self.end[i]:.9f}\t{self.self_time[i]:.9f}\n")

    def layer_metrics(self, overhead_ratio: float) -> dict:
        """The per-layer metrics named in METRICS."""
        names = self.names
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        inclusive: defaultdict = defaultdict(float)
        layer_self: defaultdict = defaultdict(float)
        curve_spans = {i for i, n in enumerate(names) if n.startswith("capacity.lower_bound_curve")}
        simplex = {i for i, n in enumerate(names) if n.startswith("lp.simplex_min")}
        lp_in_curve = 0
        for i in range(len(self.name)):
            full = names[self.name[i]]
            base = full.partition("@")[0]
            calls[full] += 1
            if full != base:
                calls[base] += 1
            self_s[base] += self.self_time[i]
            inclusive[base] += self.end[i] - self.start[i]
            layer_self[base.partition(".")[0]] += self.self_time[i]
            if self.name[i] in simplex:
                p = self.parent[i]
                while p >= 0 and self.name[p] not in curve_spans:
                    p = self.parent[p]
                lp_in_curve += p >= 0
        c = self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        out = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
        out.update({
            "source_model.load_s": inclusive["source_model.load_source"],
            "source_model.entropy.calls": sum(calls[n] for n in ENTROPY),
            "source_model.entropy.self_s": sum(self_s[n] for n in ENTROPY),
            "source_model.edge_masks.calls": calls["source_model.HypergraphicalSource.edge_masks"],
            "mmi.calls": calls["mmi.mmi"],
            "mmi.partitions.mmi": c["mmi.iter_partitions.yields"],
            "mmi.partitions.capacity": c["mmi.iter_partitions@capacity.yields"],
            "mmi.enum_s": self_s["mmi.iter_partitions"],
            "lp.calls.omniscience": calls["lp.simplex_min@omniscience"],
            "lp.calls.capacity": calls["lp.simplex_min@capacity"],
            "lp.cells": c["lp.cells"],
            "omniscience.calls": calls["omniscience.rco"],
            "capacity.lower_bound.calls": calls["capacity.lower_bound_curve"],
            "capacity.lower_bound.self_s": self_s["capacity.lower_bound_curve"],
            "capacity.sandwich.self_s": self_s["capacity.sandwich"],
            "capacity.lp_calls_per_curve": ratio(lp_in_curve, calls["capacity.lower_bound_curve"]),
            "capacity.breakpoints_per_lp_call": ratio(c["capacity.breakpoints"], lp_in_curve),
            "curves.envelope.calls": calls["curves.upper_concave_envelope"],
            "curves.envelope.self_s": self_s["curves.upper_concave_envelope"],
            "curves.value_at.calls": calls["curves.CapacityCurve.value_at"],
            "two_user.sweep.calls": calls["two_user.run_sweep"],
            "two_user.sweep.self_s": self_s["two_user.run_sweep"],
            "two_user.runs": c["two_user.runs"],
            "two_user.converged_ratio": ratio(c["two_user.converged"], c["two_user.runs"]),
            "two_user.curve.self_s": (self_s["two_user.compressed_curve_one_sided"]
                                      + self_s["two_user.constrained_curve_one_way"]),
            "protocol_sim.tree.self_s": self_s["protocol_sim.tree_packing_scheme"],
            "protocol_sim.binning.self_s": self_s["protocol_sim.random_binning_omniscience"],
            "protocol_sim.verify.self_s": self_s["protocol_sim.verify"],
            "protocol_sim.bits": c["protocol_sim.bits"],
            "protocol_sim.binning.achieved_ratio": ratio(
                c["protocol_sim.achieved"], calls["protocol_sim.random_binning_omniscience"]),
            "gf2.add.calls": calls["gf2.Gf2Basis.add"],
            "gf2.add.self_s": self_s["gf2.Gf2Basis.add"],
            "gf2.reduce.calls": calls["gf2.Gf2Basis.reduce"],
            "gf2.reduce.self_s": self_s["gf2.Gf2Basis.reduce"],
            "gf2.copy.calls": calls["gf2.Gf2Basis.copy"],
            "gf2.add.useful_ratio": ratio(c["gf2.useful_adds"], calls["gf2.Gf2Basis.add"]),
            "trace.overhead_ratio": overhead_ratio,
        })
        return {k: out[k] for k in METRICS}


# Counts read from arguments or results at a layer boundary, keyed by the
# span name of the defining module.

def _lp_cells(counts, args, result):
    c, rows = args[0], args[1]
    counts["lp.cells"] += len(rows) * (len(c) + len(rows))


def _breakpoints(counts, args, result):
    counts["capacity.breakpoints"] += len(result.curve.points)


def _sweep(counts, args, result):
    counts["two_user.runs"] += len(result.channels)
    counts["two_user.converged"] += sum(ch.converged for ch in result.channels)


def _tree(counts, args, result):
    counts["protocol_sim.bits"] += result.instance.total_bits


def _binning(counts, args, result):
    counts["protocol_sim.bits"] += result.instance.total_bits
    counts["protocol_sim.achieved"] += bool(result.achieved)


def _gf2_add(counts, args, result):
    counts["gf2.useful_adds"] += bool(result)


HOOKS = {
    "lp.simplex_min": _lp_cells,
    "capacity.lower_bound_curve": _breakpoints,
    "two_user.run_sweep": _sweep,
    "protocol_sim.tree_packing_scheme": _tree,
    "protocol_sim.random_binning_omniscience": _binning,
    "gf2.Gf2Basis.add": _gf2_add,
}
