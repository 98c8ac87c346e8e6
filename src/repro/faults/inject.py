"""Fault injection runtime: the imperative half of :mod:`repro.faults`.

An :class:`ActiveScenario` is the per-run state of one
:class:`~repro.faults.scenario.FaultScenario`: RNG streams, armed process
faults and event counters.  Integration is strictly pay-for-what-you-use —
with no scenario attached, neither the TLM nor the PCAM path constructs any
of these objects, and channels go unwrapped.

The injection point is the abstract bus channel: every PE interaction (TLM
generated code, the cycle CPU, clock-stepped HW units) flows through a
:class:`~repro.simkernel.channel.BusChannel`, so a :class:`FaultyChannel`
proxy inserted into the :class:`~repro.simkernel.channel.ChannelMap` covers
both model layers with one mechanism, and the injected behaviour is
identical wherever the simulation runs.
"""

from __future__ import annotations

import random

from ..simkernel import ChannelMap, SimulationError
from .scenario import FaultScenarioError


class FaultInjectedError(SimulationError):
    """A ``crash`` fault (mode ``"error"``) fired.

    Carries the fault-counter snapshot taken at the moment of the crash as
    ``fault_stats``.  Note the kernel wraps in-process failures, so callers
    of ``run`` see a :class:`SimulationError` whose ``__cause__`` is this
    error.
    """

    code = "fault-injected"

    def __init__(self, message, fault_stats=None):
        super().__init__(message)
        self.fault_stats = dict(fault_stats or {})


class ProcessHaltFault(Exception):
    """Internal: unwinds a process killed by a ``crash`` fault in ``halt``
    mode.  Caught by the wrapped process target — never escapes a run."""


class _ActiveChannelFault:
    """Per-run state of one channel fault: its RNG stream and event count.

    The RNG is seeded from (scenario seed, fault index) — a string seed, so
    Python hash randomisation cannot perturb it — and is drawn once per
    matching transaction.  The draw sequence therefore depends only on the
    channel's transaction order, which the deterministic kernel makes
    identical across runs.
    """

    __slots__ = ("spec", "rng", "events")

    def __init__(self, spec, index, seed):
        self.spec = spec
        self.rng = random.Random("repro-fault:%d:%d" % (seed, index))
        self.events = 0

    def fires(self):
        spec = self.spec
        if spec.max_events is not None and self.events >= spec.max_events:
            return False
        if spec.rate >= 1.0:
            fired = True
        else:
            fired = self.rng.random() < spec.rate
        if fired:
            self.events += 1
        return fired


class _ArmedProcessFault:
    """Per-run state of one process fault (fires at most once)."""

    __slots__ = ("spec", "fired")

    def __init__(self, spec):
        self.spec = spec
        self.fired = False


class ActiveScenario:
    """Per-run injection state; create via ``scenario.activate()``."""

    def __init__(self, scenario, reference_cycle_ns=10.0):
        self.scenario = scenario
        self.reference_cycle_ns = reference_cycle_ns
        self._channel_faults = []
        self._process_faults = []
        for index, fault in enumerate(scenario.faults):
            if hasattr(fault, "channel"):
                self._channel_faults.append(
                    _ActiveChannelFault(fault, index, scenario.seed)
                )
            else:
                self._process_faults.append(_ArmedProcessFault(fault))
        self.counts = {
            "corrupted_transactions": 0,
            "corrupted_words": 0,
            "dropped_transactions": 0,
            "dropped_words": 0,
            "delayed_transactions": 0,
            "delay_cycles": 0,
            "stalls": 0,
            "stall_cycles": 0,
            "crashes": 0,
            "halts": 0,
        }

    # -- integration hooks ---------------------------------------------------

    def validate(self, channel_items, process_names):
        """Fail fast when a fault targets a channel/process the design does
        not have (a typo in a scenario file must not silently no-op)."""
        unknown = []
        ids = {chan_id for chan_id, _ in channel_items}
        names = {name for _, name in channel_items}
        for active in self._channel_faults:
            target = active.spec.channel
            if target not in ids and target not in names:
                unknown.append("channel %r" % (target,))
        process_names = set(process_names)
        for armed in self._process_faults:
            if armed.spec.process not in process_names:
                unknown.append("process %r" % (armed.spec.process,))
        if unknown:
            raise FaultScenarioError(
                "scenario %r targets unknown %s"
                % (self.scenario.name, ", ".join(unknown))
            )

    def wrap_channel_map(self, channel_map):
        """A :class:`ChannelMap` twin with faulty channels wrapped.

        A channel is wrapped when a channel fault targets it, or when any
        process fault exists (process faults trigger at transaction
        boundaries, so every channel of the design must check them).
        """
        wrapped = ChannelMap()
        for chan_id, channel in channel_map:
            matching = [
                active for active in self._channel_faults
                if active.spec.matches(chan_id, channel.name)
            ]
            if matching or self._process_faults:
                wrapped.add(chan_id, FaultyChannel(self, channel, matching))
            else:
                wrapped.add(chan_id, channel)
        return wrapped

    def wrap_target(self, target):
        """Wrap a process target so a ``halt`` crash unwinds it cleanly."""
        def wrapped(sim_process):
            try:
                yield from target(sim_process)
            except ProcessHaltFault:
                pass
        return wrapped

    def counters(self):
        """The per-run fault counters plus per-fault event counts."""
        stats = dict(self.counts)
        stats["total_events"] = (
            sum(active.events for active in self._channel_faults)
            + sum(1 for armed in self._process_faults if armed.fired)
        )
        stats["per_fault"] = [
            {"type": active.spec.kind, "target": active.spec.channel,
             "events": active.events}
            for active in self._channel_faults
        ] + [
            {"type": armed.spec.kind, "target": armed.spec.process,
             "events": int(armed.fired)}
            for armed in self._process_faults
        ]
        return stats

    # -- fault evaluation ----------------------------------------------------

    def process_fault_stall_ns(self, process, now):
        """Fire any due process faults for ``process``; returns stall ns.

        Crash faults raise from here (``error`` mode:
        :class:`FaultInjectedError`; ``halt`` mode:
        :class:`ProcessHaltFault`, caught by the wrapped target).
        """
        if not self._process_faults:
            return 0.0
        cycle_ns = self.reference_cycle_ns
        stall_ns = 0.0
        name = process.name
        for armed in self._process_faults:
            spec = armed.spec
            if armed.fired or spec.process != name:
                continue
            if now < spec.at_cycle * cycle_ns:
                continue
            armed.fired = True
            at = int(now / cycle_ns)
            if spec.kind == "stall":
                self.counts["stalls"] += 1
                self.counts["stall_cycles"] += spec.cycles
                stall_ns += spec.cycles * cycle_ns
            elif spec.mode == "halt":
                self.counts["halts"] += 1
                raise ProcessHaltFault(
                    "process %r halted by injected fault at cycle %d"
                    % (name, at)
                )
            else:
                self.counts["crashes"] += 1
                raise FaultInjectedError(
                    "process %r crashed by injected fault at cycle %d"
                    % (name, at),
                    fault_stats=self.counters(),
                )
        return stall_ns


class FaultyChannel:
    """A :class:`~repro.simkernel.channel.BusChannel` proxy that injects the
    scenario's faults around the real channel operations.

    Presents the same interface as the wrapped channel (``send_gen``/
    ``recv_gen``, ``pending_words``), so the TLM channel binding, the cycle
    CPU and the HW unit processes all work unchanged.
    """

    __slots__ = ("_active", "_channel", "_faults", "_kernel", "name")

    def __init__(self, active, channel, channel_faults):
        self._active = active
        self._channel = channel
        self._faults = list(channel_faults)
        self._kernel = channel.kernel
        self.name = channel.name

    # -- shared fault evaluation --------------------------------------------

    def _cycle_ns(self):
        bus = self._channel.bus
        return bus.cycle_ns if bus is not None else self._active.reference_cycle_ns

    def _pre(self, process):
        """Process-fault check at this transaction boundary; stall ns."""
        return self._active.process_fault_stall_ns(process, self._kernel.now)

    def _outgoing(self, values):
        """Channel faults for one send: (values | None if dropped, delay_ns).

        Evaluated once per transaction in scenario order; the RNG draws
        happen here, so the decision sequence is a pure function of the
        channel's transaction order.
        """
        counts = self._active.counts
        delay_ns = 0.0
        dropped = False
        for active in self._faults:
            if not active.fires():
                continue
            spec = active.spec
            if spec.kind == "delay":
                counts["delayed_transactions"] += 1
                counts["delay_cycles"] += spec.cycles
                delay_ns += spec.cycles * self._cycle_ns()
            elif spec.kind == "corrupt":
                counts["corrupted_transactions"] += 1
                counts["corrupted_words"] += len(values)
                mask = spec.xor_mask
                values = [
                    v ^ mask if isinstance(v, int) else v for v in values
                ]
            else:  # drop
                counts["dropped_transactions"] += 1
                counts["dropped_words"] += len(values)
                dropped = True
        return (None if dropped else values), delay_ns

    # -- BusChannel interface ------------------------------------------------

    def send_gen(self, process, values):
        values = list(values)
        n_words = len(values)
        stall_ns = self._pre(process)
        if stall_ns:
            yield stall_ns
        values, delay_ns = self._outgoing(values)
        if delay_ns:
            yield delay_ns
        if values is None:
            # Dropped: the transfer still occupies the bus, but the payload
            # never reaches the channel.
            bus = self._channel.bus
            if bus is not None:
                yield from bus.occupy_gen(process, n_words)
            return
        yield from self._channel.send_gen(process, values)

    def recv_gen(self, process, count):
        stall_ns = self._pre(process)
        if stall_ns:
            yield stall_ns
        return (yield from self._channel.recv_gen(process, count))

    # -- passthroughs --------------------------------------------------------

    @property
    def bus(self):
        return self._channel.bus

    @property
    def kernel(self):
        return self._kernel

    @property
    def pending_words(self):
        return self._channel.pending_words

    @property
    def total_sent(self):
        return self._channel.total_sent

    def __repr__(self):
        return "FaultyChannel(%r, %d faults)" % (self.name, len(self._faults))
