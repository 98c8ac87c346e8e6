"""Platform and mapping descriptions — the TLM generator's input.

The paper's flow takes "application C processes and their mapping to
processing units in the platform".  A :class:`Design` bundles exactly that:

* :class:`PEDecl` — a processing element with its PUM,
* :class:`BusDecl` / :class:`ChannelDecl` — the communication architecture
  (abstract bus channels, per the paper's reference [16]),
* :class:`ProcessDecl` — one application process: its CMini source, entry
  function, arguments and the PE it is mapped to.
"""

from __future__ import annotations

import math

from ..errors import InputError
from ..pum.model import PUMError

#: Grant policies a bus may declare (see
#: :class:`~repro.tlm.contention.ArbitratedBus`).
POLICIES = ("fifo", "priority", "rr")


class PlatformError(InputError):
    """Raised for inconsistent platform descriptions."""

    code = "platform"


def _is_finite(value):
    """True when ``value`` is a finite number (not NaN, inf or a string)."""
    try:
        return math.isfinite(value)
    except TypeError:
        return False


class PEDecl:
    """A processing element instance and its processing unit model.

    ``rtos`` is an optional :class:`~repro.rtos.model.RTOSModel`; it is
    required when several processes map to this PE (the TLM must then
    serialise their delays on the shared processor).
    """

    __slots__ = ("name", "pum", "rtos")

    def __init__(self, name, pum, rtos=None):
        self.name = name
        self.pum = pum
        self.rtos = rtos

    @property
    def cycle_ns(self):
        return 1000.0 / self.pum.frequency_mhz

    def __repr__(self):
        return "PEDecl(%r, %s)" % (self.name, self.pum.name)


class BusDecl:
    """A shared bus: width, static arbitration overhead and (optionally) a
    dynamic grant policy.

    ``policy`` is ``None`` for the legacy static model (every transaction
    charges ``arbitration_cycles``, simultaneous masters retry-poll), or one
    of ``"fifo"`` / ``"priority"`` / ``"rr"`` to attach an
    :class:`~repro.tlm.contention.ArbitratedBus` with queued grants and real
    queuing delays.  ``priorities`` (master name -> int, lower = more
    urgent) only matters for the ``"priority"`` policy.
    """

    __slots__ = ("name", "words_per_cycle", "arbitration_cycles", "cycle_ns",
                 "policy", "priorities")

    def __init__(self, name, words_per_cycle=1, arbitration_cycles=2,
                 cycle_ns=10.0, policy=None, priorities=None):
        self.name = name
        self.words_per_cycle = words_per_cycle
        self.arbitration_cycles = arbitration_cycles
        self.cycle_ns = cycle_ns
        self.policy = policy
        self.priorities = dict(priorities) if priorities else {}

    def __repr__(self):
        if self.policy is not None:
            return "BusDecl(%r, policy=%r)" % (self.name, self.policy)
        return "BusDecl(%r)" % self.name


class ChannelDecl:
    """A logical channel (integer id, as addressed by CMini ``send``/``recv``)
    mapped onto a bus."""

    __slots__ = ("chan_id", "name", "bus_name")

    def __init__(self, chan_id, name, bus_name):
        self.chan_id = chan_id
        self.name = name
        self.bus_name = bus_name

    def __repr__(self):
        return "ChannelDecl(%d, %r on %r)" % (self.chan_id, self.name, self.bus_name)


class ProcessDecl:
    """One application process and its mapping.

    Attributes:
        name: process name.
        source: CMini source text of the process's translation unit.
        entry: entry function name within the source.
        pe_name: the PE this process is mapped to.
        args: positional arguments for the entry function (scalars only).
    """

    __slots__ = ("name", "source", "entry", "pe_name", "args")

    def __init__(self, name, source, entry, pe_name, args=()):
        self.name = name
        self.source = source
        self.entry = entry
        self.pe_name = pe_name
        self.args = tuple(args)

    def __repr__(self):
        return "ProcessDecl(%r on %r, entry=%r)" % (
            self.name, self.pe_name, self.entry,
        )


class Design:
    """A complete system design: platform + application + mapping."""

    def __init__(self, name):
        self.name = name
        self.pes = {}
        self.buses = {}
        self.channels = {}
        self.processes = {}

    # -- construction ---------------------------------------------------------

    def add_pe(self, name, pum, rtos=None):
        if name in self.pes:
            raise PlatformError("duplicate PE %r" % name)
        frequency = pum.frequency_mhz
        if not (_is_finite(frequency) and frequency > 0):
            raise PUMError("PE %r: frequency_mhz must be finite and > 0, "
                           "not %r" % (name, frequency))
        self.pes[name] = PEDecl(name, pum, rtos)
        return self.pes[name]

    def add_bus(self, name, words_per_cycle=1, arbitration_cycles=2,
                cycle_ns=10.0, policy=None, priorities=None):
        if name in self.buses:
            raise PlatformError("duplicate bus %r" % name)
        for field, value, minimum in (
                ("cycle_ns", cycle_ns, 0),
                ("words_per_cycle", words_per_cycle, 1),
                ("arbitration_cycles", arbitration_cycles, 0)):
            if not (_is_finite(value) and value >= minimum):
                raise PlatformError(
                    "bus %r: %s must be a finite number >= %d, not %r"
                    % (name, field, minimum, value)
                )
        if policy is not None and policy not in POLICIES:
            raise PlatformError(
                "bus %r: unknown arbitration policy %r (choose %s)"
                % (name, policy, ", ".join(POLICIES))
            )
        self.buses[name] = BusDecl(
            name, words_per_cycle, arbitration_cycles, cycle_ns,
            policy=policy, priorities=priorities,
        )
        return self.buses[name]

    def has_dynamic_arbitration(self):
        """True when any bus resolves contention with a dynamic arbiter
        (grant order then depends on run-time load — see
        :mod:`repro.tlm.contention`)."""
        return any(bus.policy is not None for bus in self.buses.values())

    def add_channel(self, chan_id, name, bus_name):
        if chan_id in self.channels:
            raise PlatformError("duplicate channel id %d" % chan_id)
        if bus_name not in self.buses:
            raise PlatformError("channel %r references unknown bus %r"
                                % (name, bus_name))
        self.channels[chan_id] = ChannelDecl(chan_id, name, bus_name)
        return self.channels[chan_id]

    def add_process(self, name, source, entry, pe_name, args=()):
        if name in self.processes:
            raise PlatformError("duplicate process %r" % name)
        if pe_name not in self.pes:
            raise PlatformError("process %r mapped to unknown PE %r"
                                % (name, pe_name))
        self.processes[name] = ProcessDecl(name, source, entry, pe_name, args)
        return self.processes[name]

    # -- introspection -------------------------------------------------------

    def validate(self):
        """Cross-check the design; raises :class:`PlatformError` on problems."""
        if not self.processes:
            raise PlatformError("design %r has no processes" % self.name)
        used_pes = {p.pe_name for p in self.processes.values()}
        idle = set(self.pes) - used_pes
        if idle:
            raise PlatformError(
                "PEs with no mapped process: %s" % ", ".join(sorted(idle))
            )
        for pe_name in used_pes:
            on_pe = self.processes_on(pe_name)
            if len(on_pe) > 1 and self.pes[pe_name].rtos is None:
                raise PlatformError(
                    "PE %r runs %d processes but has no RTOS model"
                    % (pe_name, len(on_pe))
                )
        return self

    def processes_on(self, pe_name):
        return [p for p in self.processes.values() if p.pe_name == pe_name]

    def __repr__(self):
        return "Design(%r: %d PEs, %d processes, %d channels)" % (
            self.name, len(self.pes), len(self.processes), len(self.channels),
        )
