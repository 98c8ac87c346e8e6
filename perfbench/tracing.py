"""Spans around calls into the program's layers, recorded from outside.

The benchmark does not edit the program to trace it.  ``instrument``
replaces each public entry point listed in ``ENTRY_POINTS`` with a wrapper
that records one span per call, in every ``repro`` module that bound the
function (``from x import f`` copies the reference), and ``undo`` puts the
originals back.  A span is ``(name, start, end, parent, op)``; spans stay
in memory until the run ends.

A span's self time is its duration minus the durations of its child
spans.  The layer of a span is the part of its name before the first dot,
named after the program module it times.
"""

from __future__ import annotations

import builtins
import collections
import functools
import importlib
import sys
import threading
from time import perf_counter

#: ``(module, attribute, span name)``; ``Class.method`` attributes are
#: replaced on the class.  Only calls from the main thread are recorded:
#: the static estimator co-interprets processes on helper threads.
ENTRY_POINTS = (
    ("repro.tlm.serialize", "load_design", "tlm.load_design"),
    ("repro.tlm.generator", "generate_tlm", "tlm.generate"),
    ("repro.tlm.model", "TLModel.run", "tlm.run"),
    ("repro.cfrontend.semantic", "parse_and_analyze", "cfrontend.parse"),
    ("repro.cdfg.builder", "build_program", "cdfg.build"),
    ("repro.cdfg.irhash", "source_fingerprint", "cdfg.source_fingerprint"),
    ("repro.cdfg.irhash", "ir_fingerprint", "cdfg.ir_fingerprint"),
    ("repro.estimation.annotator", "annotate_ir_program",
     "estimation.annotate"),
    ("repro.estimation.staticest", "profile_design", "estimation.profile"),
    ("repro.estimation.staticest", "process_comp_cycles",
     "estimation.comp_cycles"),
    ("repro.codegen.pygen", "generate_source", "codegen.generate"),
    ("repro.codegen.pygen", "program_from_source", "codegen.load"),
    ("repro.simkernel.kernel", "Kernel.run", "simkernel.run"),
    ("repro.artifacts", "ArtifactStore.get", "artifacts.get"),
    ("repro.artifacts", "ArtifactStore.put", "artifacts.put"),
    ("repro.apps.mp3.source", "build_sources", "apps.build_sources"),
    ("repro.apps.mp3.designs", "build_design", "apps.build_design"),
    ("repro.search", "search", "search.search"),
    ("repro.search", "static_scores", "search.static_scores"),
    ("repro.explore", "explore", "explore.explore"),
    ("repro.simtrace.capture", "capture_tlm_trace", "simtrace.capture"),
    ("repro.simtrace.replay", "replay_many", "simtrace.replay"),
    ("repro.simtrace.trace", "process_delay_totals", "simtrace.delay_totals"),
    ("repro.simtrace.trace", "replay_signature", "simtrace.signature"),
    ("repro.simtrace.trace", "approx_signature", "simtrace.approx_signature"),
    ("repro.workloads.traffic", "run_traffic", "traffic.run"),
    ("repro.workloads.traffic", "capture_traffic_profile", "traffic.capture"),
    ("repro.workloads.traffic_replay", "replay_traffic_sweep",
     "traffic_replay.sweep"),
    ("repro.workloads.traffic_replay", "compile_replay_plan",
     "traffic_replay.compile"),
    ("repro.workloads.traffic_replay", "replay_traffic_point",
     "traffic_replay.point"),
)

#: The generator compiles generated modules with the ``compile`` builtin;
#: shadowing it in that one module times the codegen layer's compile step.
COMPILE_SITE = ("repro.tlm.generator", "codegen.compile")

ROOT = "op"


class Tracer:
    """In-memory span recorder plus counters joined from layer reports.

    Spans are stored as parallel columns of atoms, which the garbage
    collector does not traverse, so tracing does not slow collections.
    """

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.ops = []
        self.counts = collections.Counter()
        self.op = None
        self._stack = []
        self._thread = threading.get_ident()

    def begin(self, name):
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(perf_counter())
        return index

    def end(self, index):
        self.ends[index] = perf_counter()
        self._stack.pop()

    def spans(self):
        """``(name, start, end, parent, op)`` per span, in start order."""
        return list(zip(self.names, self.starts, self.ends, self.parents,
                        self.ops))

    def wrap(self, name, func, after=None):
        """``func`` recording a span per main-thread call inside an op;
        ``after(result, args)`` joins the counters the call returns."""
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if tracer.op is None or threading.get_ident() != tracer._thread:
                return func(*args, **kwargs)
            index = tracer.begin(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.end(index)
            if after is not None:
                after(result, args)
            return result

        return traced

    def run_op(self, op_id, func, *args):
        """One benchmark op under a root span."""
        self.op = op_id
        index = self.begin(ROOT)
        try:
            return func(*args)
        finally:
            self.end(index)
            self.op = None

    # -- counters joined from what the layers return ---------------------

    def _after_tlm_run(self, result, args):
        self.counts["tlm.runs"] += 1
        self.counts["tlm.sim_cycles"] += result.makespan_cycles

    def _after_kernel_run(self, result, args):
        kernel = args[0]
        self.counts["simkernel.runs"] += 1
        if kernel.active_scheduler == "wheel":
            self.counts["simkernel.wheel_events"] += kernel.events_scheduled
        self.counts["simkernel.traced_events"] += kernel.events_scheduled


def _repro_modules():
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


def instrument(tracer):
    """Wraps every entry point; returns the callable that undoes it."""
    hooks = {
        "tlm.run": tracer._after_tlm_run,
        "simkernel.run": tracer._after_kernel_run,
    }
    for module_name, _, _ in ENTRY_POINTS:
        importlib.import_module(module_name)
    modules = _repro_modules()
    restore = []
    for module_name, attribute, name in ENTRY_POINTS:
        module = sys.modules[module_name]
        if "." in attribute:
            class_name, method = attribute.split(".")
            cls = getattr(module, class_name)
            original = cls.__dict__[method]
            setattr(cls, method, tracer.wrap(name, original, hooks.get(name)))
            restore.append((cls, method, original))
            continue
        original = getattr(module, attribute)
        wrapped = tracer.wrap(name, original, hooks.get(name))
        for owner in modules:
            for key, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, key, wrapped)
                    restore.append((owner, key, original))
    site = sys.modules[COMPILE_SITE[0]]
    site.compile = tracer.wrap(COMPILE_SITE[1], builtins.compile)

    def undo():
        for owner, key, original in reversed(restore):
            setattr(owner, key, original)
        del site.compile

    return undo


def layer_of(name):
    return name.split(".", 1)[0]


def self_times(spans):
    """Per-span self time in seconds (duration minus child durations)."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [span[2] - span[1] - covered
            for span, covered in zip(spans, child)]


def summarize(spans):
    """Per-layer and per-span-name self/total seconds, the coverage of op
    wall time by layer spans, and the aggregated span tree."""
    selfs = self_times(spans)
    by_layer = collections.defaultdict(float)
    by_name = collections.defaultdict(lambda: [0, 0.0, 0.0])
    tree = collections.defaultdict(lambda: [0, 0.0, 0.0])
    paths = []
    op_wall = op_self = 0.0
    for (name, start, end, parent, _), own in zip(spans, selfs):
        path = name if parent < 0 else paths[parent] + "/" + name
        paths.append(path)
        if parent < 0 and name == ROOT:
            op_wall += end - start
            op_self += own
            continue
        by_layer[layer_of(name)] += own
        for table in (by_name[name], tree[path]):
            table[0] += 1
            table[1] += end - start
            table[2] += own
    coverage = (1.0 - op_self / op_wall) if op_wall else 0.0
    return {
        "op_wall_s": op_wall,
        "unexplained_s": op_self,
        "coverage": coverage,
        "layer_self_s": dict(by_layer),
        "spans": {name: {"calls": calls, "total_s": total, "self_s": own}
                  for name, (calls, total, own) in sorted(by_name.items())},
        "tree": {path: {"calls": calls, "total_s": total, "self_s": own}
                 for path, (calls, total, own) in sorted(tree.items())},
    }


def layer_table(summary, n_ops):
    """Text table of per-layer self time per op and its share of op time."""
    lines = ["%-16s %12s %8s" % ("layer", "self ms/op", "share")]
    wall = summary["op_wall_s"] or 1.0
    rows = sorted(summary["layer_self_s"].items(), key=lambda kv: -kv[1])
    rows.append(("(unexplained)", summary["unexplained_s"]))
    for layer, seconds in rows:
        lines.append("%-16s %12.3f %7.1f%%"
                     % (layer, 1e3 * seconds / max(n_ops, 1),
                        100.0 * seconds / wall))
    return "\n".join(lines)
