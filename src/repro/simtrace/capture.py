"""Capture one timed TLM simulation as a replayable :class:`SimTrace`.

:func:`capture_tlm_trace` is the one-stop entry point: generate the timed
TLM (through the usual artifact-cached pipeline), run it once with a
:class:`~repro.simkernel.TraceRecorder` attached, and freeze the recorded
op streams — together with the run's own results for self-validation —
into a :class:`SimTrace`.  The trace is stored in the artifact store under
its exact-tier signature, so a later sweep over the same platform family
finds it without simulating at all.
"""

from __future__ import annotations

from ..simkernel import TraceRecorder
from .trace import (
    TRACE_KIND,
    ProcessTrace,
    SimTrace,
    process_delay_totals,
    replay_signature,
)

__all__ = ["capture_tlm_trace"]


def capture_tlm_trace(design, granularity="transaction", optimize=True,
                      quantum=None, store=None, report=None, watchdog=None):
    """One recorded timed simulation of ``design``.

    Returns ``(trace, tlm_result)`` — the result is the full
    :class:`~repro.tlm.model.TLMResult` of the recorded run, which is
    observably identical to an unrecorded one (the recording proxies only
    log; they never change timing).  The model is always generated timed —
    a functional TLM would capture no delays to replay.
    """
    from ..tlm.generator import generate_tlm

    design.validate()
    model = generate_tlm(
        design, timed=True, granularity=granularity, report=report,
        optimize=optimize, quantum=quantum, store=store,
    )
    recorder = TraceRecorder()
    result = model.run(watchdog=watchdog, record=recorder)

    signature = replay_signature(
        design, granularity=granularity, quantum=quantum, optimize=optimize,
    )
    processes = {}
    for name, decl in design.processes.items():
        proc_result = result.process(name)
        processes[name] = ProcessTrace(
            name,
            decl.pe_name,
            list(recorder.ops.get(name, ())),
            proc_result.cycles,
            proc_result.transactions,
        )
    trace = SimTrace(
        design.name,
        granularity,
        quantum,
        optimize,
        result.cycle_ns,
        processes,
        result.makespan_cycles,
        result.end_time_ns,
        signature,
        process_delay_totals(design, store=store),
        grants=recorder.grants,
    )
    if store is not False:
        from ..tlm.generator import _resolve_store

        _resolve_store(store).put(TRACE_KIND, signature, trace)
    return trace, result
