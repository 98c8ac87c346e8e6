"""Analytic replay of a :class:`~repro.simtrace.SimTrace`.

Two engines re-evaluate a recorded simulation for a *new* design point:

* :func:`replay_tlm` — the exact scalar replayer.  It builds the new
  point's real kernel, buses, channels and RTOS shares, then drives them
  with **stub generator processes** that re-issue the recorded op stream
  instead of executing generated code.  Because the op stream is exactly
  what the generated code would have issued on the new point (same
  sources/flags/PUM-minus-frequency — see
  :func:`~repro.simtrace.replay_signature`), the kernel run is
  *bit-identical* to a full simulation: same floats, same event ordering,
  same arbitration races, at a fraction of the cost (no codegen'd
  computation executes).
* :func:`replay_many` — evaluates a whole sweep, dispatching eligible
  design points to the numpy-vectorized engine
  (:mod:`repro.simtrace.vectorized`) in one pass over the trace arrays and
  falling back to the scalar engine per point where the vectorized model's
  conservative exactness checks fail.

With ``delay_scales`` (approximate tier) each recorded delay segment is
rescaled — ``cycles = round(a * scale)`` — before replay; everything else
is unchanged.
"""

from __future__ import annotations

from ..simkernel import Bus, BusChannel, ChannelMap, Kernel
from ..simkernel.kernel import OP_RECV, OP_SEND, OP_WAIT
from .trace import SimTraceError

__all__ = ["ReplayOutcome", "replay_many", "replay_tlm"]


class ReplayOutcome:
    """Result of one replayed design point."""

    __slots__ = ("makespan_cycles", "end_time_ns", "per_process_cycles",
                 "engine")

    def __init__(self, makespan_cycles, end_time_ns, per_process_cycles,
                 engine):
        self.makespan_cycles = makespan_cycles
        self.end_time_ns = end_time_ns
        self.per_process_cycles = per_process_cycles
        self.engine = engine

    def __repr__(self):
        return "ReplayOutcome(makespan=%d, engine=%r)" % (
            self.makespan_cycles, self.engine,
        )


def _check_compatible(trace, design):
    """Raise :class:`SimTraceError` unless ``design`` can host the trace."""
    if list(trace.processes) != list(design.processes):
        raise SimTraceError(
            "trace processes %s do not match design %r processes %s"
            % (list(trace.processes), design.name, list(design.processes))
        )
    for name, proc_trace in trace.processes.items():
        if design.processes[name].pe_name != proc_trace.pe_name:
            raise SimTraceError(
                "process %r moved from PE %r to %r; traces do not survive "
                "re-mapping" % (name, proc_trace.pe_name,
                                design.processes[name].pe_name)
            )
    for chan_id in trace.channels_used():
        if chan_id not in design.channels:
            raise SimTraceError(
                "trace uses channel %d absent from design %r"
                % (chan_id, design.name)
            )


def _stub_target(ops, cycle_ns, share, channel_map, name, scale):
    """A generator process re-issuing one recorded op stream.

    Mirrors the generated code's kernel interactions exactly: waits become
    ``cycles * cycle_ns`` kernel delays (or RTOS-share executions), channel
    ops go through the real ``send_gen``/``recv_gen``.  ``scale`` rescales
    wait cycle counts (1.0 ⇒ ``cycles`` is the recorded integer untouched).
    """
    def target(sim_process):
        applied = 0
        for _, op, a, b in ops:
            if op == OP_WAIT:
                cycles = a if scale == 1.0 else int(round(a * scale))
                applied += cycles
                if share is not None:
                    yield from share.execute_gen(sim_process, name, cycles)
                elif cycles:
                    yield cycles * cycle_ns
            elif op == OP_SEND:
                yield from channel_map.get(a).send_gen(
                    sim_process, [0] * b
                )
            else:  # OP_RECV
                yield from channel_map.get(a).recv_gen(sim_process, b)
        target.applied_cycles = applied

    target.applied_cycles = 0
    return target


def replay_tlm(trace, design, delay_scales=None):
    """Exact scalar replay of ``trace`` on ``design``; a
    :class:`ReplayOutcome`.

    ``delay_scales`` (``{process: float}``, default all 1.0) switches to
    the approximate tier: recorded wait cycles are rescaled per process
    before replay.
    """
    _check_compatible(trace, design)
    kernel = Kernel()
    buses = {}
    for bus_name, bus_decl in design.buses.items():
        buses[bus_name] = Bus(
            kernel, bus_name,
            cycle_ns=bus_decl.cycle_ns,
            words_per_cycle=bus_decl.words_per_cycle,
            arbitration_cycles=bus_decl.arbitration_cycles,
        )
    channel_map = ChannelMap()
    for chan_id, chan_decl in design.channels.items():
        channel_map.add(
            chan_id,
            BusChannel(kernel, chan_decl.name, buses[chan_decl.bus_name]),
        )
    shares = {}
    for pe_name, pe in design.pes.items():
        if pe.rtos is not None:
            from ..rtos.model import CPUShare

            shares[pe_name] = CPUShare(kernel, pe_name, pe.cycle_ns, pe.rtos)

    targets = {}
    for name, proc_trace in trace.processes.items():
        pe = design.pes[design.processes[name].pe_name]
        scale = 1.0 if delay_scales is None else delay_scales.get(name, 1.0)
        target = _stub_target(
            proc_trace.ops, pe.cycle_ns, shares.get(proc_trace.pe_name),
            channel_map, name, scale,
        )
        targets[name] = target
        kernel.add_process(name, target)

    end_time = kernel.run()
    per_process = {
        name: targets[name].applied_cycles for name in trace.processes
    }
    return ReplayOutcome(
        int(round(end_time / trace.reference_cycle_ns)),
        end_time,
        per_process,
        "scalar",
    )


def _single_sender_receiver(trace):
    """True when every channel has exactly one sending and one receiving
    process — the topology precondition of the vectorized engine."""
    senders = {}
    receivers = {}
    for name, proc_trace in trace.processes.items():
        for _, op, a, _ in proc_trace.ops:
            if op == OP_SEND:
                senders.setdefault(a, set()).add(name)
            elif op == OP_RECV:
                receivers.setdefault(a, set()).add(name)
    return all(len(s) == 1 for s in senders.values()) and all(
        len(r) == 1 for r in receivers.values()
    )


def replay_many(trace, designs, delay_scales=None, vectorize=True):
    """Replay ``trace`` for every design in ``designs``.

    Returns ``(outcomes, stats)`` where ``outcomes`` is one
    :class:`ReplayOutcome` per design (same order) and ``stats`` counts
    ``{"vectorized": n, "scalar": m}`` evaluations.  Design points the
    vectorized model cannot handle exactly — RTOS-scheduled PEs,
    multi-sender channels, arbitration-order races its conservative checks
    flag — are evaluated by the exact scalar engine instead, so the
    outcome quality never depends on the dispatch.
    """
    designs = list(designs)
    if delay_scales is None:
        scales = [None] * len(designs)
    else:
        scales = list(delay_scales)
        if len(scales) != len(designs):
            raise SimTraceError(
                "delay_scales must have one entry per design"
            )
    for design in designs:
        _check_compatible(trace, design)

    outcomes = [None] * len(designs)
    stats = {"vectorized": 0, "scalar": 0}

    vector_idx = []
    if vectorize and len(designs) >= 2 and _single_sender_receiver(trace):
        vector_idx = [
            i for i, design in enumerate(designs)
            if all(pe.rtos is None for pe in design.pes.values())
        ]
    if len(vector_idx) >= 2:
        from .vectorized import replay_sweep

        swept = replay_sweep(
            trace,
            [designs[i] for i in vector_idx],
            [scales[i] for i in vector_idx],
        )
        if swept is not None:
            makespans, end_times, per_process, ok = swept
            for lane, i in enumerate(vector_idx):
                if not ok[lane]:
                    continue
                outcomes[i] = ReplayOutcome(
                    int(makespans[lane]),
                    float(end_times[lane]),
                    {name: int(cycles[lane])
                     for name, cycles in per_process.items()},
                    "vectorized",
                )
                stats["vectorized"] += 1

    for i, design in enumerate(designs):
        if outcomes[i] is None:
            outcomes[i] = replay_tlm(trace, design, delay_scales=scales[i])
            stats["scalar"] += 1
    return outcomes, stats
