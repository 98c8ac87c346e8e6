"""Runtime support for generated timed code.

Generated process code receives a :class:`ProcessContext` as its first
argument.  The context implements the paper's ``wait()`` accounting:

* ``wait(cycles)`` — called at the end of every basic block — only
  *accumulates* the estimated delay;
* the accumulated delay is applied to the simulation kernel (``sc_wait`` in
  the paper) lazily, at inter-process transaction boundaries, because
  rescheduling the kernel per basic block would destroy simulation speed.
  The granularity is user-controllable: ``"transaction"`` (default) syncs
  only at communication points, ``"block"`` syncs on every block (the
  ablation baseline), and ``"quantum"`` coalesces ``quantum`` accumulated
  waits into one kernel event — a middle ground that bounds how far a
  process's local time may run ahead without paying a kernel activation
  per block.

Generated code runs as a kernel generator process, so a suspension must
reach the kernel through a ``yield``: ``wait`` never touches the kernel
itself, it *returns* True when a sync is due and the generated code
performs ``yield from ctx.sync_gen()`` at the call site.  Communication is
``yield from ctx.send_gen(...)`` / ``ctx.recv_gen(...)``.

A context also works without any kernel attached ("standalone" mode): a
comm-free program generated at transaction granularity has no suspending
function, so calling its entry directly simply accumulates
``total_cycles`` — which is how ``python -m repro run --timed`` produces a
cycle count for a single-PE program without spinning up a TLM.
"""

from __future__ import annotations

from collections import defaultdict
from math import inf, nan

from ..cdfg import cnum
from ..simkernel.kernel import OP_WAIT

GRANULARITIES = ("transaction", "block", "quantum")

#: Default number of accumulated waits coalesced per kernel event in
#: ``"quantum"`` granularity.
DEFAULT_QUANTUM = 64

# Re-exported names the generated code refers to, with ``inf`` and ``nan``
# (imported from :mod:`math` above): ``repr`` writes non-finite floats so.
c_div = cnum.c_div
c_rem = cnum.c_rem
c_f2i = cnum.c_float_to_int


class ProcessContext:
    """Per-process timing and communication state.

    Args:
        name: process name (diagnostics).
        cycle_ns: duration of one PE cycle in kernel time units.
        comm: object with the generator operations
            ``send_gen(process, chan, values)`` and
            ``recv_gen(process, chan, count)``; usually a
            :class:`~repro.tlm.model.ChannelBinding`.  ``None`` for pure
            computations.
        sim_process: the kernel process this context belongs to (a
            :class:`~repro.simkernel.kernel.GeneratorProcess`), or ``None``
            in standalone mode.
        granularity: when accumulated waits hit the kernel (see module doc).
        quantum: waits coalesced per kernel event in ``"quantum"`` mode.
    """

    def __init__(self, name="proc", cycle_ns=10.0, comm=None,
                 sim_process=None, granularity="transaction",
                 cpu_share=None, quantum=DEFAULT_QUANTUM):
        if granularity not in GRANULARITIES:
            raise ValueError(
                "granularity must be one of %s" % (GRANULARITIES,)
            )
        if granularity == "quantum" and quantum < 1:
            raise ValueError("quantum must be >= 1")
        self.name = name
        self.cycle_ns = cycle_ns
        self.comm = comm
        self.sim_process = sim_process
        self.granularity = granularity
        #: optional :class:`~repro.rtos.model.CPUShare` when this process
        #: shares its PE under an RTOS model
        self.cpu_share = cpu_share
        self.quantum = quantum
        self.pending_cycles = 0
        self.total_cycles = 0
        self.n_transactions = 0
        # 0 disables threshold syncing (transaction granularity).
        if granularity == "block":
            self._sync_threshold = 1
        elif granularity == "quantum":
            self._sync_threshold = int(quantum)
        else:
            self._sync_threshold = 0
        self._pending_waits = 0

    # -- timing ------------------------------------------------------------

    def wait(self, cycles):
        """Accumulate the estimated delay of one basic-block execution.

        Returns True when the granularity makes a sync due; the generated
        code then runs ``yield from ctx.sync_gen()``.
        """
        self.pending_cycles += cycles
        self.total_cycles += cycles
        if self._sync_threshold:
            self._pending_waits += 1
            return self._pending_waits >= self._sync_threshold
        return False

    def sync_gen(self):
        """Apply accumulated delay to the simulation kernel (``sc_wait``).

        Under an RTOS model the delay is executed on the shared processor
        (serialised against other processes on the same PE) instead of being
        a private wait.
        """
        if self.pending_cycles and self.sim_process is not None:
            if self.cpu_share is not None:
                yield from self.cpu_share.execute_gen(
                    self.sim_process, self.name, self.pending_cycles
                )
            else:
                yield self.pending_cycles * self.cycle_ns
        self.pending_cycles = 0
        self._pending_waits = 0

    # -- communication -------------------------------------------------------

    def send_gen(self, chan, values):
        """Transaction boundary: flush delays, then send over the channel."""
        yield from self.sync_gen()
        self.n_transactions += 1
        if self.comm is None:
            raise RuntimeError(
                "process %r has no communication binding" % self.name
            )
        yield from self.comm.send_gen(self.sim_process, chan, values)

    def recv_gen(self, chan, count):
        """Transaction boundary: flush delays, then blocking-receive."""
        yield from self.sync_gen()
        self.n_transactions += 1
        if self.comm is None:
            raise RuntimeError(
                "process %r has no communication binding" % self.name
            )
        return (yield from self.comm.recv_gen(self.sim_process, chan, count))


class RecordingContext(ProcessContext):
    """A :class:`ProcessContext` that logs applied delay segments.

    Each sync that actually reaches the kernel is recorded as one
    ``OP_WAIT`` op carrying the accumulated cycle count — the exact value
    the kernel (or :class:`~repro.rtos.model.CPUShare`) is about to turn
    into simulated time.  Channel operations are recorded at the channel
    layer (:class:`~repro.simkernel.channel.RecordingChannel`), not here,
    so nothing is double-counted.  Timing, counters and communication pass
    through ``super()`` untouched; with recording off the plain
    :class:`ProcessContext` is used and this class never runs.
    """

    def __init__(self, recorder, **kwargs):
        super().__init__(**kwargs)
        self.recorder = recorder

    def sync_gen(self):
        if self.pending_cycles and self.sim_process is not None:
            self.recorder.record(self.name, OP_WAIT, self.pending_cycles, 0)
        return (yield from super().sync_gen())


class CountingContext:
    """The context of a counting program (the counting emission of
    :mod:`repro.codegen.pygen`): ``counts`` maps each site of the program
    that ran to its execution count, in the order sites first ran, and
    communication suspends with the reference interpreter's requests,
    ``("send", chan, values)`` and ``("recv", chan, count)`` — whoever
    drives the program implements the channels, as for
    :meth:`repro.cdfg.interp.Interpreter.call_gen`."""

    __slots__ = ("counts",)

    def __init__(self):
        self.counts = defaultdict(int)

    @staticmethod
    def send_gen(chan, values):
        yield ("send", chan, values)

    @staticmethod
    def recv_gen(chan, count):
        return (yield ("recv", chan, count))
