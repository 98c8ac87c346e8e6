"""Dynamic bus contention: arbitrated buses with real queuing delays.

The plain :class:`~repro.simkernel.channel.Bus` charges a *static*
``arbitration_cycles`` overhead per transaction and resolves simultaneous
masters by a retry poll-loop — each blocked master re-wakes at the bus's
release time and re-checks, which is O(k²) activations for k queued masters
and models no grant policy at all.  This module adds the first *dynamic*
contention model (ROADMAP item 2; the MPSoC SystemC/TLM2 modeling paper,
arXiv 1408.0982, grounds the arbitration semantics):

* masters that find the bus busy enqueue **once** and sleep;
* the completing transaction grants the next master directly at its release
  instant (one wake per grant — O(k) activations for k waiters);
* the grant order is a policy: ``"fifo"`` (arrival order), ``"priority"``
  (per-master priorities, ties by arrival) or ``"rr"`` (round-robin over
  master names);
* every grant records real queuing delay, surfaced as per-bus counters
  (``grants``, ``stall_cycles``, ``utilization``) on ``TLMResult.bus_stats``
  and ``--kernel-stats``.

Pay-for-what-you-use: a design without an arbitration policy builds the
plain :class:`Bus` and runs byte-for-byte the legacy path.  An *uncontended*
transaction on an arbitrated bus (bus free, queue empty) takes an O(1) fast
path with arithmetic identical to the plain bus, so single-master runs
produce bit-identical makespans whether or not an arbiter is attached.
"""

from __future__ import annotations

from ..simkernel.channel import Bus
from ..simkernel.kernel import SimulationError
from .platform import POLICIES

#: Priority assumed for masters absent from the ``priorities`` map
#: (lower number = more urgent, like the RTOS model).
DEFAULT_PRIORITY = 100


class ContentionError(SimulationError):
    """Raised for invalid arbitration configuration."""

    code = "contention"


class ArbitratedBus(Bus):
    """A :class:`Bus` with queued arbitration and a grant policy.

    Extra counters (beyond the plain bus's ``total_transactions`` /
    ``total_words``):

    * ``grants`` — transactions granted (fast path + queued);
    * ``queued_grants`` — grants that had to wait in the queue;
    * ``stall_ns`` — total simulated time masters spent queued;
    * ``busy_ns`` — total simulated time the bus was occupied;
    * ``max_queue`` — high-water mark of the waiter queue.
    """

    def __init__(self, kernel, name, cycle_ns=10.0, words_per_cycle=1,
                 arbitration_cycles=2, policy="fifo", priorities=None):
        if policy not in POLICIES:
            raise ContentionError(
                "unknown arbitration policy %r for bus %r (choose %s)"
                % (policy, name, ", ".join(POLICIES))
            )
        super().__init__(
            kernel, name, cycle_ns=cycle_ns,
            words_per_cycle=words_per_cycle,
            arbitration_cycles=arbitration_cycles,
        )
        self.policy = policy
        self.priorities = dict(priorities or {})
        #: optional :class:`~repro.simkernel.TraceRecorder` logging grants
        self._recorder = None
        #: waiters: [process, n_words, arrival_ns, arrival_seq]
        self._wait_queue = []
        self._arrival_seq = 0
        self._grant_pending = False
        self._rr_last = ""
        self.grants = 0
        self.queued_grants = 0
        self.stall_ns = 0.0
        self.busy_ns = 0.0
        self.max_queue = 0

    # -- trace recording -----------------------------------------------------

    def attach_recorder(self, recorder):
        """Log every grant to ``recorder`` (a ``TraceRecorder``).

        Recording is only sound while the bus stays uncontended: fast-path
        grants start at the master's own request instant, so their order
        and timing are properties of the op streams alone.  The moment a
        grant would have to *queue*, grant order becomes load-dependent —
        the recording aborts there (see :meth:`_enqueue`) rather than
        produce a trace that replays unfaithfully.
        """
        self._recorder = recorder

    # -- grant bookkeeping ---------------------------------------------------

    def _occupy_now(self, n_words):
        """Charge the transfer starting at ``kernel.now``; returns duration."""
        duration = self.transfer_time(n_words)
        self.busy_until = self.kernel.now + duration
        self.total_transactions += 1
        self.total_words += n_words
        self.busy_ns += duration
        self.grants += 1
        return duration

    def _enqueue(self, process, n_words):
        if self._recorder is not None:
            raise SimulationError(
                "cannot record a simulation trace of bus %r: master %r "
                "found the bus busy at t=%.1fns, and a queued grant's "
                "order is load-dependent — only uncontended (fast-path "
                "only) arbitrated runs are recordable"
                % (self.name, process.name, self.kernel.now)
            )
        entry = [process, n_words, self.kernel.now, self._arrival_seq]
        self._arrival_seq += 1
        self._wait_queue.append(entry)
        if len(self._wait_queue) > self.max_queue:
            self.max_queue = len(self._wait_queue)
        process.blocked_on = "bus(%s)" % self.name
        return entry

    def _select(self):
        """Pop the next waiter according to the grant policy."""
        queue = self._wait_queue
        if self.policy == "fifo":
            return queue.pop(0)
        if self.policy == "priority":
            priorities = self.priorities
            best = min(queue, key=lambda e: (
                priorities.get(e[0].name, DEFAULT_PRIORITY), e[3],
            ))
            queue.remove(best)
            return best
        # round-robin: next master name after the last granted one, in
        # cyclic sorted order; several waiters of one master go by arrival.
        heads = {}
        for entry in queue:
            name = entry[0].name
            held = heads.get(name)
            if held is None or entry[3] < held[3]:
                heads[name] = entry
        names = sorted(heads)
        following = [n for n in names if n > self._rr_last]
        pick = following[0] if following else names[0]
        entry = heads[pick]
        queue.remove(entry)
        return entry

    def _release(self):
        """Called by the finishing master at its completion instant: hand
        the bus to the next waiter (one targeted wake — no retry herd)."""
        if not self._wait_queue:
            return
        entry = self._select()
        self._grant_pending = True
        self._rr_last = entry[0].name
        self.kernel._wake(entry[0])

    def _finish_queued_grant(self, entry, n_words):
        """Waiter-side accounting once its wake arrives."""
        self._grant_pending = False
        waited = self.kernel.now - entry[2]
        self.stall_ns += waited
        self.queued_grants += 1
        return self._occupy_now(n_words)

    # -- master interface ----------------------------------------------------

    def occupy_gen(self, process, n_words):
        """Arbitrated :meth:`Bus.occupy_gen`: an uncontended master takes
        the bus at once; a contended one queues and sleeps until
        :meth:`_release` grants it the bus."""
        kernel = self.kernel
        if (not self._wait_queue and not self._grant_pending
                and kernel.now >= self.busy_until):
            self._rr_last = process.name
            if self._recorder is not None:
                self._recorder.record_grant(
                    self.name, process.name, n_words, kernel.now,
                )
            duration = self._occupy_now(n_words)
            yield duration
            self._release()
            return kernel.now
        entry = self._enqueue(process, n_words)
        yield None  # woken only when _release grants us the bus
        duration = self._finish_queued_grant(entry, n_words)
        yield duration
        self._release()
        return kernel.now

    # -- reporting -----------------------------------------------------------

    def bus_stats(self):
        now = self.kernel.now
        return {
            "policy": self.policy,
            "grants": self.grants,
            "queued_grants": self.queued_grants,
            "stall_cycles": int(round(self.stall_ns / self.cycle_ns)),
            "busy_cycles": int(round(self.busy_ns / self.cycle_ns)),
            "utilization": (self.busy_ns / now) if now > 0 else 0.0,
            "max_queue": self.max_queue,
            "transactions": self.total_transactions,
            "words": self.total_words,
        }


def build_bus(kernel, bus_decl):
    """Instantiate the right bus for a declaration: the plain legacy
    :class:`Bus` when no policy is set (zero new overhead), otherwise an
    :class:`ArbitratedBus`."""
    if getattr(bus_decl, "policy", None) is None:
        return Bus(
            kernel, bus_decl.name,
            cycle_ns=bus_decl.cycle_ns,
            words_per_cycle=bus_decl.words_per_cycle,
            arbitration_cycles=bus_decl.arbitration_cycles,
        )
    return ArbitratedBus(
        kernel, bus_decl.name,
        cycle_ns=bus_decl.cycle_ns,
        words_per_cycle=bus_decl.words_per_cycle,
        arbitration_cycles=bus_decl.arbitration_cycles,
        policy=bus_decl.policy,
        priorities=bus_decl.priorities,
    )


def collect_bus_stats(buses):
    """Per-bus counter dicts for every arbitrated bus in ``buses``.

    Plain buses are skipped — they model no queuing, so reporting zeros for
    them would read as "measured, no contention" when nothing was measured.
    """
    stats = {}
    for name, bus in buses.items():
        if isinstance(bus, ArbitratedBus):
            stats[name] = bus.bus_stats()
    return stats
