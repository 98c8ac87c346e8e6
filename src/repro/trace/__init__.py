"""Trace-once/evaluate-many cache simulation.

Capture a design's memory-reference streams with one cycle-accurate (or
ISS) run, then answer "what would the hit rate be?" for any number of LRU
cache geometries in a single stack-distance pass — bit-identical to
re-simulating each configuration.  See ``docs/performance.md``.

The same pattern at the transaction level — trace one timed TLM
*simulation*, replay whole platform sweeps — lives in
:mod:`repro.simtrace`; its main names are re-exported here lazily for
discoverability (``from repro.trace import SimTrace`` works without
importing the TLM stack up front).  The stack-distance evaluator's names
are forwarded lazily too: :mod:`.stackdist` imports numpy, which the
simulation paths that only need :class:`TraceError` should not load.
"""

from .capture import (
    CPUTrace,
    TraceBuilder,
    TracingCache,
    capture_design_trace,
    iss_capturable,
)
from .stream import LineStream, StreamRecorder, TraceError

#: Names forwarded (lazily, PEP 562) from :mod:`.stackdist`.
_STACKDIST_NAMES = ("CacheGeometry", "evaluate_stream")

#: Names forwarded (lazily, PEP 562) from :mod:`repro.simtrace`.
_SIMTRACE_NAMES = (
    "ProcessTrace",
    "ReplayOutcome",
    "SimTrace",
    "SimTraceError",
    "capture_tlm_trace",
    "replay_many",
    "replay_signature",
    "replay_tlm",
)

__all__ = [
    "CPUTrace",
    "LineStream",
    "StreamRecorder",
    "TraceBuilder",
    "TraceError",
    "TracingCache",
    "capture_design_trace",
    "iss_capturable",
] + list(_STACKDIST_NAMES) + list(_SIMTRACE_NAMES)


def __getattr__(name):
    if name in _STACKDIST_NAMES:
        from . import stackdist

        return getattr(stackdist, name)
    if name in _SIMTRACE_NAMES:
        from .. import simtrace

        return getattr(simtrace, name)
    raise AttributeError(
        "module %r has no attribute %r" % (__name__, name)
    )
