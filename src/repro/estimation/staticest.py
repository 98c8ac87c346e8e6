"""Simulation-free static performance estimation (stage 0 of ``repro.search``).

The timed TLM's per-process cycle count is *by construction* the sum of the
annotated block delays over the executed block trace: the generated code
accumulates ``block.delay`` once per block execution.  That means one
profiled execution — block counts per process, captured once per
application — turns the cached Algorithm-1/2 delay vectors (the
generator's ``tlm-delays`` artifacts) into an exact computation-cycle
predictor for *any* PUM, with no simulation at all:

    comp_cycles(process) = sum_b  count(b) * delay(b | PUM)

Communication is estimated from the same profile: each recorded ``send``
costs its bus transfer time (arbitration + ceil(words / width) bus
cycles), exactly the abstract bus channel's timing model.  Summing
computation and transfer times models the blocking-RPC style of the
paper's case studies, where HW units compute while the dispatching CPU
process waits; on single-process designs the estimate equals the timed
TLM's makespan up to rounding.

What this is for: scoring 10^4-10^6 design points in microseconds each to
*prune* a design space before any kernel runs (see :mod:`repro.search`).
It is an estimator, not a simulator — bus contention between concurrent
masters and genuine computation overlap are not modelled, which is why the
search pipeline always re-evaluates survivors with the timed TLM.

The application profile is captured the way arXiv 1508.06830 profiles a
task, by one instrumented native execution: every process runs the
*counting* emission of its generated code, which counts block executions
where the timed code charges delays (its counts times the delays are the
timed TLM's cycles by construction), over FIFO channels — each process a
generator, run on one thread from a deterministic ready queue, with no
simulation kernel involved.  Counting modules depend on code alone, so a
sweep compiles one per process code and a freshly seeded application only
binds its data.  A failing application is profiled again on the reference
IR interpreter, which names the failure.  The profile is cached in the
artifact store under the ``app-profile`` kind, keyed by the processes'
source fingerprints — a sweep profiles each distinct application once.
"""

from __future__ import annotations

import json
from collections import deque

from ..artifacts import content_key, register_kind
from ..cdfg.interp import Interpreter
from ..codegen.pygen import COUNT
from ..codegen.runtime import CountingContext
from ..errors import InputError

#: Artifact kind for captured application profiles.
PROFILE_KIND = "app-profile"

#: The simulation kernel's reference clock (see ``TLModel``); static
#: estimates are expressed in these reference cycles, like makespans.
REFERENCE_CYCLE_NS = 10.0

__all__ = [
    "AppProfile",
    "PROFILE_KIND",
    "REFERENCE_CYCLE_NS",
    "StaticEstimateError",
    "app_profile_key",
    "process_comp_cycles",
    "profile_design",
    "static_estimate",
]


class StaticEstimateError(InputError):
    """The application could not be profiled for static estimation."""

    code = "static-estimate"


class AppProfile:
    """One application's profiled execution, PUM- and platform-independent.

    Attributes:
        key: the profile's artifact key (see :func:`app_profile_key`).
        counts: ``{process: {function: {block_label: executions}}}``.
        sends: ``{process: [(chan_id, words, times), ...]}`` — aggregated
            send transactions (``times`` sends of ``words`` words each).
        recvs: same shape for receives (receives do not occupy the bus;
            kept for diagnostics and utilization views).
    """

    __slots__ = ("key", "counts", "sends", "recvs")

    def __init__(self, key, counts, sends, recvs):
        self.key = key
        self.counts = counts
        self.sends = sends
        self.recvs = recvs

    def total_blocks(self, process):
        """Total executed blocks of one process."""
        return sum(
            count
            for per_func in self.counts[process].values()
            for count in per_func.values()
        )

    def to_dict(self):
        """JSON-compatible form (the artifact kind's disk encoding)."""
        return {
            "key": self.key,
            "counts": {
                proc: {
                    func: sorted(per_block.items())
                    for func, per_block in per_proc.items()
                }
                for proc, per_proc in self.counts.items()
            },
            "sends": {p: [list(t) for t in v] for p, v in self.sends.items()},
            "recvs": {p: [list(t) for t in v] for p, v in self.recvs.items()},
        }

    @classmethod
    def from_dict(cls, data):
        return cls(
            data["key"],
            {
                proc: {
                    func: {int(label): count for label, count in pairs}
                    for func, pairs in per_proc.items()
                }
                for proc, per_proc in data["counts"].items()
            },
            {p: [tuple(t) for t in v] for p, v in data["sends"].items()},
            {p: [tuple(t) for t in v] for p, v in data["recvs"].items()},
        )

    def __repr__(self):
        return "AppProfile(%d processes, %d transactions)" % (
            len(self.counts),
            sum(t for v in self.sends.values() for _, _, t in v),
        )


register_kind(PROFILE_KIND, version=1, disk=True,
              encode=AppProfile.to_dict,
              decode=AppProfile.from_dict)


def app_profile_key(design):
    """The profile artifact key of ``design``'s application.

    Depends only on the process sources, entries and arguments — not on
    PUMs, buses or mappings — so every point of a platform/PUM sweep shares
    one profile.
    """
    from ..cdfg.irhash import source_fingerprint

    doc = sorted(
        (decl.name, source_fingerprint(decl.source), decl.entry,
         list(decl.args))
        for decl in design.processes.values()
    )
    return content_key("app-profile/v1", json.dumps(doc))


def _aggregate(log, kind):
    """``[(chan, words, times)]`` sorted, from a raw per-process log."""
    totals = {}
    for entry_kind, chan, words in log:
        if entry_kind == kind:
            totals[(chan, words)] = totals.get((chan, words), 0) + 1
    return [(chan, words, times)
            for (chan, words), times in sorted(totals.items())]


def _frontend_ir(design, store):
    """{process: (ir_program, ir_fingerprint)} via the generator's cached
    front-end stage."""
    from ..tlm.generator import GenerationReport, _frontend_stage, \
        _resolve_store

    store = _resolve_store(store)
    report = GenerationReport(design.name, True)
    return {
        name: _frontend_stage(store, report, decl)
        for name, decl in design.processes.items()
    }, store


def profile_design(design, store=None):
    """Profile ``design``'s application once; returns an :class:`AppProfile`.

    Every process runs its *counting program* — the counting emission of
    its generated code (:mod:`repro.codegen.pygen`), which counts block
    executions where the timed TLM charges delays and suspends at its
    ``comm`` ops with the reference interpreter's requests.  The module
    depends on the process's code only, so the generator's codegen stage
    caches one per code text (key ``<ir fingerprint>/count``) and a new
    application with the same code only binds its data.  One loop serves
    the processes from a FIFO ready queue in design order: a ``send``
    appends to the channel's word queue and wakes a receiver it satisfies;
    a ``recv`` with too few words queued blocks the process.  The
    co-execution follows the same data dependencies as the TLM without any
    simulation kernel, so block counts and channel traffic depend only on
    the application data flow.

    The result is cached in the artifact store (``app-profile`` kind);
    sweeps profile each distinct application exactly once.

    Raises :class:`StaticEstimateError` naming the process as soon as one
    fails, or naming the blocked processes as soon as none can run (a
    process awaiting data nobody sends).  When the counting programs fail,
    the application is profiled again on the reference :class:`Interpreter`
    generators, whose result or error is the answer: the diagnostic names
    what the reference semantics reject.  The generated code, like the TLM
    it is, runs a few programs the interpreter rejects — a negative array
    index counts from the array's end, an out-of-range ``comm`` count
    slices — and their profile is then the TLM's.
    """
    from ..tlm.generator import _resolve_store

    store = _resolve_store(store)
    key = app_profile_key(design)
    cached = store.get(PROFILE_KIND, key)
    if cached is not None:
        return cached

    irs, store = _frontend_ir(design, store)
    try:
        counts, logs = _counting_run(design, irs, store)
    except StaticEstimateError:
        # A failing process or a starved one: the reference semantics
        # decide what to report.
        counts, logs = _interpreted_run(design, irs)
    profile = AppProfile(
        key,
        counts,
        {name: _aggregate(logs[name], "send") for name in design.processes},
        {name: _aggregate(logs[name], "recv") for name in design.processes},
    )
    store.put(PROFILE_KIND, key, profile)
    return profile


def _counting_run(design, irs, store):
    """``(counts, logs)`` of the processes' counting programs."""
    from ..tlm.generator import GenerationReport, _codegen_stage

    report = GenerationReport(design.name, True)
    programs = {}
    runs = {}
    for name, decl in design.processes.items():
        ir_program, ir_fp = irs[name]
        generated = _codegen_stage(
            store, report, ir_program, ir_fp + "/count", COUNT,
            "transaction", module_name="<count:%s:%s>" % (design.name, name),
        )
        ctx = CountingContext()
        programs[name] = _process(
            generated.entry(decl.entry), generated.is_suspending(decl.entry),
            (ctx, generated.fresh_globals()) + tuple(decl.args),
        )
        runs[name] = (generated, ctx)
    logs = _co_run(design, programs)
    return {
        name: generated.block_counts(ctx.counts)
        for name, (generated, ctx) in runs.items()
    }, logs


def _process(entry, suspends, args):
    """A generator running one process's generated ``entry`` with ``args``,
    as the TLM's process target does; it starts when first resumed."""
    if suspends:
        return (yield from entry(*args))
    return entry(*args)


def _interpreted_run(design, irs):
    """``(counts, logs)`` of the processes on reference interpreters."""
    interps = {}
    programs = {}
    for name, decl in design.processes.items():
        interp = interps[name] = Interpreter(irs[name][0])
        programs[name] = interp.call_gen(decl.entry, *decl.args)
    logs = _co_run(design, programs)
    return {
        name: _counts_by_function(interps[name].block_counts)
        for name in design.processes
    }, logs


def _co_run(design, programs):
    """Serve the process generators ``programs`` from one FIFO ready queue
    until all finish; returns each process's ``(kind, chan, words)`` log."""
    logs = {name: [] for name in design.processes}
    queues = {}  # chan -> deque of words
    blocked = {}  # name -> (chan, count) while waiting in a recv
    ready = deque((name, None) for name in design.processes)
    while ready:
        name, reply = ready.popleft()
        program = programs[name]
        log = logs[name]
        try:
            while True:
                kind, chan, payload = program.send(reply)
                queue = queues.setdefault(chan, deque())
                if kind == "send":
                    log.append(("send", chan, len(payload)))
                    queue.extend(payload)
                    reply = None
                    for waiter, (want_chan, count) in list(blocked.items()):
                        if want_chan == chan and len(queue) >= count:
                            del blocked[waiter]
                            logs[waiter].append(("recv", chan, count))
                            ready.append(
                                (waiter, [queue.popleft()
                                          for _ in range(count)])
                            )
                elif len(queue) >= payload:
                    log.append(("recv", chan, payload))
                    reply = [queue.popleft() for _ in range(payload)]
                else:
                    blocked[name] = (chan, payload)
                    break
        except StopIteration:
            continue
        except Exception as exc:  # noqa: BLE001 - reported to caller
            raise StaticEstimateError(
                "profiling process %r failed: %s: %s"
                % (name, type(exc).__name__, exc)
            ) from exc
    if blocked:
        raise StaticEstimateError(
            "profiling starved; blocked processes: %s" % ", ".join(
                "%s (recv(%d, %d))" % (name, chan, count)
                for name, (chan, count) in blocked.items()
            )
        )
    return logs


def _counts_by_function(block_counts):
    """{(func, label): n} -> {func: {label: n}}."""
    per_func = {}
    for (func_name, label), count in block_counts.items():
        per_func.setdefault(func_name, {})[label] = count
    return per_func


def process_comp_cycles(design, store=None, profile=None):
    """Exact per-process computation cycles under ``design``'s PUMs.

    ``{process: cycles}`` where ``cycles`` is the dot product of the
    profiled block counts with the Algorithm-1/2 block delays of the
    process's mapped PUM — bit-identical to the timed TLM's per-process
    cycle counter for the same design (enforced by tests).  Delay vectors
    ride the generator's ``tlm-delays`` artifacts, so inside a sweep each
    distinct (application x PUM) pays annotation once.
    """
    from ..tlm.generator import (
        GenerationReport, _annotate_stage, _delays_key, _frontend_stage,
        _resolve_store,
    )

    store = _resolve_store(store)
    if profile is None:
        profile = profile_design(design, store=store)
    report = GenerationReport(design.name, True)
    totals = {}
    for name, decl in design.processes.items():
        pum = design.pes[decl.pe_name].pum
        ir_program, ir_fp = _frontend_stage(store, report, decl)
        _, entry = _annotate_stage(store, report, ir_program, pum,
                                   _delays_key(ir_fp, pum), stamp=False)
        delays = entry["functions"]
        totals[name] = sum(
            count * delays[func_name][label]
            for func_name, per_block in profile.counts[name].items()
            for label, count in per_block.items()
        )
    return totals


def transfer_cycles(words, words_per_cycle, arbitration_cycles):
    """Bus occupancy cycles of one ``words``-word transaction (mirrors
    :meth:`repro.simkernel.channel.Bus.transfer_time`)."""
    return arbitration_cycles + (
        (words + words_per_cycle - 1) // words_per_cycle
    )


def static_estimate(design, store=None, profile=None):
    """Simulation-free makespan estimate of ``design`` in reference cycles.

    Computation: exact per-process cycle counts (see
    :func:`process_comp_cycles`) scaled by each PE's clock.  Communication:
    every profiled send pays its bus transfer time.  The sum models the
    blocking-RPC execution style of the case-study applications; on
    single-process designs it equals the timed TLM makespan up to rounding.

    Returns a ``float`` (callers rank with it; it is not a cycle count).
    """
    from ..tlm.generator import _resolve_store

    store = _resolve_store(store)
    if profile is None:
        profile = profile_design(design, store=store)
    comp = process_comp_cycles(design, store=store, profile=profile)
    total_ns = 0.0
    for name, cycles in comp.items():
        pe = design.pes[design.processes[name].pe_name]
        total_ns += cycles * pe.cycle_ns
    for name, sends in profile.sends.items():
        for chan, words, times in sends:
            bus = design.buses[design.channels[chan].bus_name]
            total_ns += times * transfer_cycles(
                words, bus.words_per_cycle, bus.arbitration_cycles,
            ) * bus.cycle_ns
    return total_ns / REFERENCE_CYCLE_NS
