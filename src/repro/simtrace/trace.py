"""Simulation traces: the data model and its artifact-store kind.

A :class:`SimTrace` is the distilled record of ONE timed TLM simulation:
per process, the ordered stream of operations the process performed against
the kernel — applied delay segments, channel sends with payload sizes, and
channel receives.  That stream is everything an analytic replay needs; the
kernel's event heap, the generated code, and the data payloads are exactly
what a replay does *not* need to re-execute.

Each op is a ``(seq, op, a, b)`` tuple:

=========  ==============  =====================================
op         a               b
=========  ==============  =====================================
OP_WAIT    delay (cycles)  0
OP_SEND    channel id      payload size (words)
OP_RECV    channel id      word count received
=========  ==============  =====================================

``seq`` is the global record sequence number — the kernel runs strictly
sequentially, so it totally orders ops *across* processes in execution
order.

Why the op stream transfers across design points at all: the per-process
op sequence is determined by the generated code's control flow and the
annotation granularity, not by timing.  Changing a bus width, a PE clock,
an arbitration latency or an RTOS parameter changes *when* ops happen,
never *which* ops happen.  Two signature tiers capture this:

* :func:`replay_signature` — same sources/flags/topology *and* the same
  PUMs modulo ``frequency_mhz``: the recorded wait cycle counts are the
  exact counts any such design point would produce, so replay is **exact**
  (bit-identical to the kernel).
* :func:`approx_signature` — same sources/flags/topology, any PUMs: the
  op *sequence* still matches, but wait cycle counts must be rescaled by
  the ratio of static delay sums (see :func:`process_delay_totals`), so
  replay is **approximate**.
"""

from __future__ import annotations

from ..artifacts import content_key, register_kind
from ..pum.loader import pum_fingerprint
from ..simkernel import OP_RECV, OP_SEND, OP_WAIT
from ..trace.stream import TraceError

__all__ = [
    "ProcessTrace",
    "SimTrace",
    "SimTraceError",
    "TRACE_KIND",
    "approx_signature",
    "process_delay_totals",
    "replay_signature",
]

#: Artifact kind for captured simulation traces.
TRACE_KIND = "sim-trace"

# Version 2 composes each PE's cached PUM fingerprint; version 3 drops the
# code-generator flag (there is one code generator).  Traces stored under
# older signatures are simply never looked up again.
_SIG_VERSION = 3


class SimTraceError(TraceError):
    """A trace cannot be captured, stored, or replayed as requested."""


class ProcessTrace:
    """One process's recorded op stream plus its run-level counters."""

    __slots__ = ("name", "pe_name", "ops", "total_cycles", "transactions")

    def __init__(self, name, pe_name, ops, total_cycles, transactions):
        self.name = name
        self.pe_name = pe_name
        self.ops = ops  # list of (seq, op, a, b) tuples, program order
        self.total_cycles = total_cycles
        self.transactions = transactions

    def wait_cycles(self):
        """Sum of the recorded (applied) delay segments in cycles."""
        return sum(a for _, op, a, _ in self.ops if op == OP_WAIT)

    def __repr__(self):
        return "ProcessTrace(%r on %r: %d ops, %d cycles)" % (
            self.name, self.pe_name, len(self.ops), self.total_cycles,
        )


class SimTrace:
    """The whole platform's recorded simulation, ready for replay.

    Attributes:
        design_name: name of the traced design (diagnostics only).
        granularity / quantum: generation flags the trace was captured
            under; replay candidates must match them.
        reference_cycle_ns: reference clock used for ``makespan_cycles``.
        processes: ``{name: ProcessTrace}`` in design registration order.
        makespan_cycles / end_time_ns: the traced run's own results, kept
            for self-validation.
        signature: the exact-tier :func:`replay_signature` of the traced
            design (also the trace's artifact key).
        delay_totals: ``{name: static delay sum}`` under the traced PUMs —
            the denominators for approximate-tier rescaling.
    """

    __slots__ = ("design_name", "granularity", "quantum",
                 "reference_cycle_ns", "processes", "makespan_cycles",
                 "end_time_ns", "signature", "delay_totals", "grants")

    def __init__(self, design_name, granularity, quantum,
                 reference_cycle_ns, processes, makespan_cycles,
                 end_time_ns, signature, delay_totals, grants=None):
        self.design_name = design_name
        self.granularity = granularity
        self.quantum = quantum
        self.reference_cycle_ns = reference_cycle_ns
        self.processes = processes
        self.makespan_cycles = makespan_cycles
        self.end_time_ns = end_time_ns
        self.signature = signature
        self.delay_totals = delay_totals
        #: bus name -> ((seq, master, n_words, when_ns), ...) — the per-bus
        #: grant streams of an arbitrated capture (schema v2).  Fast-path
        #: grants only: a queued grant aborts recording, so every logged
        #: grant started at its requester's own request instant.  Empty for
        #: designs without arbitration policies.
        self.grants = {
            bus: tuple(tuple(grant) for grant in stream)
            for bus, stream in (grants or {}).items()
        }

    def n_ops(self):
        return sum(len(p.ops) for p in self.processes.values())

    def channels_used(self):
        """Sorted channel ids any recorded op touches."""
        used = set()
        for trace in self.processes.values():
            for _, op, a, _ in trace.ops:
                if op == OP_SEND or op == OP_RECV:
                    used.add(a)
        return sorted(used)

    def to_dict(self):
        """JSON-compatible form (the artifact kind's disk encoding)."""
        return {
            "design_name": self.design_name,
            "granularity": self.granularity,
            "quantum": self.quantum,
            "reference_cycle_ns": self.reference_cycle_ns,
            "makespan_cycles": self.makespan_cycles,
            "end_time_ns": self.end_time_ns,
            "signature": self.signature,
            "delay_totals": dict(self.delay_totals),
            "grants": {
                bus: [list(grant) for grant in stream]
                for bus, stream in self.grants.items()
            },
            "processes": [
                {
                    "name": p.name,
                    "pe_name": p.pe_name,
                    "ops": [list(op) for op in p.ops],
                    "total_cycles": p.total_cycles,
                    "transactions": p.transactions,
                }
                for p in self.processes.values()
            ],
        }

    @classmethod
    def from_dict(cls, data):
        processes = {}
        for entry in data["processes"]:
            processes[entry["name"]] = ProcessTrace(
                entry["name"],
                entry["pe_name"],
                [tuple(op) for op in entry["ops"]],
                entry["total_cycles"],
                entry["transactions"],
            )
        return cls(
            data["design_name"],
            data["granularity"],
            data["quantum"],
            data["reference_cycle_ns"],
            processes,
            data["makespan_cycles"],
            data["end_time_ns"],
            data["signature"],
            dict(data["delay_totals"]),
            grants=data.get("grants"),
        )

    def __repr__(self):
        return "SimTrace(%r: %d processes, %d ops, makespan=%d)" % (
            self.design_name, len(self.processes), self.n_ops(),
            self.makespan_cycles,
        )


# Version 2 added the per-bus ``grants`` streams (arbitrated captures);
# version 3 dropped the code-generator flag.  Older entries on disk are
# *stale*, not corrupt — the store counts them separately and
# transparently recaptures.
register_kind(TRACE_KIND, version=3, disk=True,
              encode=SimTrace.to_dict,
              decode=SimTrace.from_dict)


# -- signatures --------------------------------------------------------------

def _signature_doc(design, granularity, quantum):
    """The shared (source/flags/topology) part of both signature tiers."""
    from ..cdfg.irhash import source_fingerprint

    return {
        "v": _SIG_VERSION,
        "granularity": granularity,
        "quantum": quantum,
        "processes": [
            {
                "name": decl.name,
                "source": source_fingerprint(decl.source),
                "entry": decl.entry,
                "args": list(decl.args),
                "pe": decl.pe_name,
            }
            for decl in design.processes.values()
        ],
        "channels": sorted(
            (chan_id, decl.bus_name)
            for chan_id, decl in design.channels.items()
        ),
    }


def replay_signature(design, granularity="transaction", quantum=None):
    """Exact-tier trace signature of ``design``.

    Two designs with equal signatures produce identical op streams with
    identical wait cycle counts; any trace captured from one replays the
    other bit-identically.  Each PE enters as its cached PUM fingerprint
    plus the configured cache sizes; bus parameters, PE frequencies and
    RTOS parameters are deliberately absent — they are the replay axes.
    """
    import json

    doc = _signature_doc(design, granularity, quantum)
    doc["pes"] = {
        name: [pum_fingerprint(pe.pum), pe.pum.icache_size,
               pe.pum.dcache_size]
        for name, pe in sorted(design.pes.items())
    }
    return content_key(json.dumps(doc, sort_keys=True))


def approx_signature(design, granularity="transaction", quantum=None):
    """Approximate-tier signature: drops the PUMs entirely.

    The op *sequence* is PUM-independent (annotation only changes delay
    values), so any same-signature trace replays after per-process delay
    rescaling — cycle-approximate, not bit-exact.
    """
    import json

    doc = _signature_doc(design, granularity, quantum)
    return content_key(json.dumps(doc, sort_keys=True))


def process_delay_totals(design, store=None):
    """Static per-process delay sums under ``design``'s PUMs.

    Sums every basic block's annotated delay across all functions of each
    process — a workload-independent proxy for how a PUM/cache change
    scales a process's dynamic wait cycles.  The sum is stored with the
    generator's ``tlm-delays`` artifact at annotation time, so inside a
    sweep this is a pure cache lookup.
    """
    from ..tlm.generator import (
        GenerationReport, _annotate_stage, _delays_key, _frontend_stage,
        _resolve_store,
    )

    store = _resolve_store(store)
    report = GenerationReport(design.name, True)
    totals = {}
    for name, decl in design.processes.items():
        pum = design.pes[decl.pe_name].pum
        ir_program, ir_fp = _frontend_stage(store, report, decl)
        _, entry = _annotate_stage(store, report, ir_program, pum,
                                   _delays_key(ir_fp, pum), stamp=False)
        totals[name] = entry["total"]
    return totals
