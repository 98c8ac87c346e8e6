"""Deterministic fault scenarios: the declarative half of :mod:`repro.faults`.

A :class:`FaultScenario` is a seeded, serialisable description of *what goes
wrong* during a simulation.  Two fault families exist, matching the two ways
PEs interact at transaction level:

* **channel faults** (:class:`ChannelFault`) — applied to transactions on an
  abstract bus channel, on the sender side:

  - ``corrupt``: XOR every word of the payload with a mask;
  - ``drop``: the transfer occupies the bus but the payload is discarded
    (receiver-side loss — receivers waiting on the data may deadlock, which
    the kernel reports with the blocked-process names);
  - ``delay``: stall the sender for extra bus cycles before the transfer
    (models retries / transient arbitration loss).

  Each fires per transaction with probability ``rate`` drawn from a
  dedicated ``random.Random`` seeded from ``(scenario seed, fault index)``,
  so the decision sequence depends only on that channel's transaction order
  — which is deterministic and identical across repeated runs.

* **process faults** (:class:`ProcessFault`) — armed against a named
  process and triggered at its first channel transaction at-or-after
  ``at_cycle`` (reference cycles).  Transaction boundaries are the only
  points where a TLM process touches shared state, so this is the natural
  (and deterministic) place to model a PE misbehaving:

  - ``stall``: the PE loses ``cycles`` reference cycles once;
  - ``crash``: ``mode="error"`` (default) aborts the simulation with a
    structured :class:`~repro.faults.inject.FaultInjectedError`;
    ``mode="halt"`` silently terminates just that process (a dead PE whose
    peers then typically deadlock — chaos-testing mode).

Scenarios round-trip through JSON (:func:`load_scenario` /
:func:`save_scenario`); malformed files raise :class:`FaultScenarioError`
with field context instead of raw tracebacks.
"""

from __future__ import annotations

import json

from ..errors import InputError
from ..ioutil import atomic_write_json

#: Scenario-file format version.
SCENARIO_FORMAT_VERSION = 1

CHANNEL_FAULT_KINDS = ("corrupt", "drop", "delay")
PROCESS_FAULT_KINDS = ("stall", "crash")
CRASH_MODES = ("error", "halt")


class FaultScenarioError(InputError):
    """Raised for malformed or inapplicable fault scenarios."""

    code = "fault-scenario"


def _require(data, key, where):
    if not isinstance(data, dict):
        raise FaultScenarioError(
            "expected an object for %s, got %s" % (where, type(data).__name__)
        )
    try:
        return data[key]
    except KeyError:
        raise FaultScenarioError(
            "missing field %r in %s" % (key, where)
        ) from None


class ChannelFault:
    """One channel-level fault: kind + target channel + rate + parameters.

    Args:
        kind: ``"corrupt"``, ``"drop"`` or ``"delay"``.
        channel: target channel name (str) or channel id (int).
        rate: per-transaction firing probability in [0, 1].
        cycles: extra bus cycles per firing (``delay`` only).
        xor_mask: payload corruption mask (``corrupt`` only).
        max_events: optional cap on total firings.
    """

    __slots__ = ("kind", "channel", "rate", "cycles", "xor_mask",
                 "max_events")

    def __init__(self, kind, channel, rate=1.0, cycles=0, xor_mask=1,
                 max_events=None):
        if kind not in CHANNEL_FAULT_KINDS:
            raise FaultScenarioError(
                "unknown channel fault kind %r (choose from %s)"
                % (kind, ", ".join(CHANNEL_FAULT_KINDS))
            )
        if not 0.0 <= rate <= 1.0:
            raise FaultScenarioError(
                "fault rate must be in [0, 1], got %r" % (rate,)
            )
        if kind == "delay" and cycles < 1:
            raise FaultScenarioError("delay faults need cycles >= 1")
        if max_events is not None and max_events < 1:
            raise FaultScenarioError("max_events must be >= 1 when given")
        self.kind = kind
        self.channel = channel
        self.rate = float(rate)
        self.cycles = int(cycles)
        self.xor_mask = int(xor_mask)
        self.max_events = max_events

    def matches(self, chan_id, chan_name):
        return self.channel == chan_name or self.channel == chan_id

    def to_dict(self):
        data = {"type": self.kind, "channel": self.channel}
        if self.rate != 1.0:
            data["rate"] = self.rate
        if self.kind == "delay":
            data["cycles"] = self.cycles
        if self.kind == "corrupt":
            data["xor"] = self.xor_mask
        if self.max_events is not None:
            data["max_events"] = self.max_events
        return data

    def __repr__(self):
        return "ChannelFault(%r, channel=%r, rate=%r)" % (
            self.kind, self.channel, self.rate,
        )


class ProcessFault:
    """One process-level fault: stall or crash a PE at a given cycle.

    The fault fires once, at the target process's first channel transaction
    at-or-after ``at_cycle`` (in reference cycles — see the module doc for
    why transaction boundaries are the trigger points).
    """

    __slots__ = ("kind", "process", "at_cycle", "cycles", "mode")

    def __init__(self, kind, process, at_cycle=0, cycles=0, mode="error"):
        if kind not in PROCESS_FAULT_KINDS:
            raise FaultScenarioError(
                "unknown process fault kind %r (choose from %s)"
                % (kind, ", ".join(PROCESS_FAULT_KINDS))
            )
        if at_cycle < 0:
            raise FaultScenarioError("at_cycle must be >= 0")
        if kind == "stall" and cycles < 1:
            raise FaultScenarioError("stall faults need cycles >= 1")
        if kind == "crash" and mode not in CRASH_MODES:
            raise FaultScenarioError(
                "crash mode must be one of %s, got %r"
                % (", ".join(CRASH_MODES), mode)
            )
        self.kind = kind
        self.process = process
        self.at_cycle = int(at_cycle)
        self.cycles = int(cycles)
        self.mode = mode

    def to_dict(self):
        data = {
            "type": self.kind,
            "process": self.process,
            "at_cycle": self.at_cycle,
        }
        if self.kind == "stall":
            data["cycles"] = self.cycles
        else:
            data["mode"] = self.mode
        return data

    def __repr__(self):
        return "ProcessFault(%r, process=%r, at_cycle=%d)" % (
            self.kind, self.process, self.at_cycle,
        )


class FaultScenario:
    """A named, seeded collection of faults attachable to a TLM/PCAM run.

    Pass one to :meth:`repro.tlm.model.TLModel.run` or
    :func:`repro.cycle.pcam.run_pcam` (``faults=...``), or to the CLI via
    ``python -m repro simulate design.json --faults scenario.json``.  The
    same scenario object can be attached to many runs; each run activates
    its own counter state, so the per-run fault counters on
    ``TLMResult.fault_stats`` / ``BoardResult.fault_stats`` are independent
    and — for a fixed seed — identical across repeated runs.
    """

    def __init__(self, name="scenario", seed=0, faults=()):
        self.name = name
        self.seed = int(seed)
        self.faults = list(faults)
        for fault in self.faults:
            if not isinstance(fault, (ChannelFault, ProcessFault)):
                raise FaultScenarioError(
                    "faults must be ChannelFault or ProcessFault instances, "
                    "got %r" % (fault,)
                )

    @property
    def channel_faults(self):
        return [f for f in self.faults if isinstance(f, ChannelFault)]

    @property
    def process_faults(self):
        return [f for f in self.faults if isinstance(f, ProcessFault)]

    def activate(self, reference_cycle_ns=10.0):
        """Fresh per-run injection state (an
        :class:`~repro.faults.inject.ActiveScenario`)."""
        from .inject import ActiveScenario

        return ActiveScenario(self, reference_cycle_ns)

    # -- serialisation -------------------------------------------------------

    def to_dict(self):
        return {
            "version": SCENARIO_FORMAT_VERSION,
            "name": self.name,
            "seed": self.seed,
            "faults": [fault.to_dict() for fault in self.faults],
        }

    def __repr__(self):
        return "FaultScenario(%r, seed=%d, %d faults)" % (
            self.name, self.seed, len(self.faults),
        )


def _fault_from_dict(data, index):
    where = "faults[%d]" % index
    kind = _require(data, "type", where)
    if kind in CHANNEL_FAULT_KINDS:
        return ChannelFault(
            kind,
            _require(data, "channel", where),
            rate=data.get("rate", 1.0),
            cycles=data.get("cycles", 0),
            xor_mask=data.get("xor", 1),
            max_events=data.get("max_events"),
        )
    if kind in PROCESS_FAULT_KINDS:
        return ProcessFault(
            kind,
            _require(data, "process", where),
            at_cycle=data.get("at_cycle", 0),
            cycles=data.get("cycles", 0),
            mode=data.get("mode", "error"),
        )
    raise FaultScenarioError(
        "unknown fault type %r in %s (choose from %s)"
        % (kind, where,
           ", ".join(CHANNEL_FAULT_KINDS + PROCESS_FAULT_KINDS))
    )


def scenario_from_dict(data):
    """Build a :class:`FaultScenario` from plain dicts (JSON shape)."""
    if not isinstance(data, dict):
        raise FaultScenarioError(
            "scenario must be a JSON object, got %s" % type(data).__name__
        )
    version = data.get("version", SCENARIO_FORMAT_VERSION)
    if version != SCENARIO_FORMAT_VERSION:
        raise FaultScenarioError(
            "unsupported scenario version %r (this build reads %d)"
            % (version, SCENARIO_FORMAT_VERSION)
        )
    raw_faults = data.get("faults", [])
    if not isinstance(raw_faults, list):
        raise FaultScenarioError("'faults' must be a list")
    faults = [
        _fault_from_dict(entry, index)
        for index, entry in enumerate(raw_faults)
    ]
    seed = data.get("seed", 0)
    if not isinstance(seed, int):
        raise FaultScenarioError("'seed' must be an integer, got %r" % (seed,))
    return FaultScenario(
        name=data.get("name", "scenario"), seed=seed, faults=faults,
    )


def load_scenario(path):
    """Load a scenario from a JSON file; :class:`FaultScenarioError` on any
    unreadable or malformed input (never a raw traceback)."""
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as exc:
        raise FaultScenarioError(
            "cannot read fault scenario %s: %s" % (path, exc)
        ) from None
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise FaultScenarioError(
            "fault scenario %s is not valid JSON: %s" % (path, exc)
        ) from None
    try:
        return scenario_from_dict(data)
    except FaultScenarioError as exc:
        raise FaultScenarioError("%s (file: %s)" % (exc, path)) from None


def save_scenario(scenario, path):
    """Write the scenario as JSON (atomically); returns ``path``."""
    return atomic_write_json(path, scenario.to_dict(), indent=2)
