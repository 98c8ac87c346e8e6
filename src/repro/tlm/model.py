"""Executable transaction-level model.

A :class:`TLModel` is what the TLM generator produces: kernel + buses +
channels + one simulation process per application process, each running its
generated (timed or functional) native code.  ``run()`` executes the whole
system and returns a :class:`TLMResult` with the performance estimates.

Every process is a kernel generator process.  An entry function that can
suspend is a generator function and is driven with ``yield from``; one that
never suspends (a comm-free program at transaction granularity) is called
directly inside a generator target, which then applies the trailing
accumulated delay.  The reported ``makespan_cycles`` is bit-identical
across granularities and codegen optimization levels.
"""

from __future__ import annotations

import time

from ..simkernel import (
    BusChannel,
    ChannelMap,
    Kernel,
    SimulationError,
    record_channel_map,
)
from ..simkernel.kernel import SIM_TOTALS
from ..codegen.runtime import ProcessContext, RecordingContext
from .contention import ArbitratedBus, build_bus, collect_bus_stats

#: One reference cycle in simulated nanoseconds (100 MHz reference clock);
#: every makespan-in-cycles conversion in the repo divides by this.
REFERENCE_CYCLE_NS = 10.0


class ChannelBinding:
    """Adapts the :class:`~repro.simkernel.channel.ChannelMap` to the
    interface generated code expects on its :class:`ProcessContext`."""

    __slots__ = ("channel_map",)

    def __init__(self, channel_map):
        self.channel_map = channel_map

    def send_gen(self, sim_process, chan_id, values):
        yield from self.channel_map.get(chan_id).send_gen(sim_process, values)

    def recv_gen(self, sim_process, chan_id, count):
        return (yield from self.channel_map.get(chan_id).recv_gen(
            sim_process, count
        ))


class ProcessResult:
    """Per-process outcome of a TLM run."""

    __slots__ = ("name", "pe_name", "cycles", "transactions", "return_value")

    def __init__(self, name, pe_name, cycles, transactions, return_value):
        self.name = name
        self.pe_name = pe_name
        self.cycles = cycles
        self.transactions = transactions
        self.return_value = return_value

    def __repr__(self):
        return "ProcessResult(%r: %d cycles, %d transactions)" % (
            self.name, self.cycles, self.transactions,
        )


class TLMResult:
    """Outcome of one TLM simulation."""

    def __init__(self, design_name, timed, end_time_ns, wall_seconds,
                 processes, cycle_ns, kernel_stats=None, fault_stats=None,
                 bus_stats=None):
        self.design_name = design_name
        self.timed = timed
        self.end_time_ns = end_time_ns
        self.wall_seconds = wall_seconds
        self.processes = processes  # name -> ProcessResult
        self.cycle_ns = cycle_ns
        #: scheduler counters of the run (``activations``,
        #: ``events_scheduled``, ``channel_fastpath_hits``,
        #: ``buckets_drained``, ``scheduler``)
        self.kernel_stats = kernel_stats or {}
        #: fault-injection counters when the run had a
        #: :class:`~repro.faults.FaultScenario` attached (``{}`` otherwise)
        self.fault_stats = fault_stats or {}
        #: per-bus contention counters (bus name -> dict with ``grants``,
        #: ``stall_cycles``, ``utilization``, ...) for every bus with a
        #: dynamic arbitration policy (``{}`` for purely static designs)
        self.bus_stats = bus_stats or {}

    @property
    def makespan_cycles(self):
        """End-to-end execution time in (reference) cycles — the quantity
        compared against board measurements in Tables 2 and 3."""
        return int(round(self.end_time_ns / self.cycle_ns))

    def process(self, name):
        return self.processes[name]

    def total_computation_cycles(self):
        return sum(p.cycles for p in self.processes.values())

    def utilization(self):
        """Per-process PE utilization: computation cycles / makespan.

        Low CPU utilization with HW offload indicates the CPU is blocked on
        transactions — the load-balance view a designer reads off a timed
        TLM when picking a partitioning.
        """
        span = self.makespan_cycles
        if span == 0:
            return {name: 0.0 for name in self.processes}
        return {
            name: process.cycles / span
            for name, process in self.processes.items()
        }

    def __repr__(self):
        return "TLMResult(%r, makespan=%d cycles, wall=%.3fs)" % (
            self.design_name, self.makespan_cycles, self.wall_seconds,
        )


class TLModel:
    """A generated, simulatable transaction-level model."""

    def __init__(self, design, timed, granularity="transaction",
                 reference_cycle_ns=REFERENCE_CYCLE_NS, quantum=None):
        self.design = design
        self.timed = timed
        self.granularity = granularity
        self.reference_cycle_ns = reference_cycle_ns
        self.quantum = quantum
        #: name -> (GeneratedProgram, ProcessDecl); filled by the generator.
        self.programs = {}
        self._final_values = {}

    def add_generated_process(self, decl, generated):
        self.programs[decl.name] = (generated, decl)

    # -- execution -----------------------------------------------------------

    def run(self, until=None, faults=None, watchdog=None, record=None):
        """Simulate the model once; returns a :class:`TLMResult`.

        Each call builds a fresh kernel and fresh per-process global stores,
        so ``run`` is repeatable.

        Args:
            until: optional quiet simulated-time horizon (resumable).
            faults: optional :class:`~repro.faults.FaultScenario`; the run
                then injects the scenario's faults and reports counters on
                ``TLMResult.fault_stats``.  ``None`` (default) leaves every
                simulation path untouched.
            watchdog: optional :class:`~repro.simkernel.Watchdog` arming
                wall-clock / horizon / livelock limits on the kernel.
            record: optional :class:`~repro.simkernel.TraceRecorder`; the
                run then logs each process's applied delay segments and
                channel operations (for :mod:`repro.simtrace` replay).
                ``None`` (default) instantiates no recording proxy at all.
        """
        if record is not None and faults is not None:
            raise SimulationError(
                "cannot record a simulation trace of a fault-injected run"
            )
        kernel = Kernel()
        channel_map = ChannelMap()
        buses = {}
        for name, bus_decl in self.design.buses.items():
            buses[name] = build_bus(kernel, bus_decl)
        if record is not None:
            # Dynamically-arbitrated designs are recordable exactly as
            # long as every grant takes the uncontended fast path (whose
            # order and timing are properties of the op streams alone);
            # the first *queued* grant aborts the recording inside the
            # bus, because queued grant order is load-dependent.  The
            # recorder also logs the per-bus grant streams.
            for bus in buses.values():
                if isinstance(bus, ArbitratedBus):
                    bus.attach_recorder(record)
        for chan_id, chan_decl in self.design.channels.items():
            channel_map.add(
                chan_id,
                BusChannel(kernel, chan_decl.name, buses[chan_decl.bus_name]),
            )
        active = None
        if faults is not None:
            active = faults.activate(self.reference_cycle_ns)
            active.validate(
                [(chan_id, channel.name) for chan_id, channel in channel_map],
                list(self.programs),
            )
            channel_map = active.wrap_channel_map(channel_map)
        if record is not None:
            for name in self.programs:
                record.register(name)
            channel_map = record_channel_map(channel_map, record)
        binding = ChannelBinding(channel_map)

        shares = {}
        for pe_name, pe in self.design.pes.items():
            if pe.rtos is not None:
                from ..rtos.model import CPUShare

                shares[pe_name] = CPUShare(
                    kernel, pe_name, pe.cycle_ns, pe.rtos
                )
        self.cpu_shares = shares

        contexts = {}
        returns = {}
        for name, (generated, decl) in self.programs.items():
            pe = self.design.pes[decl.pe_name]
            kwargs = {}
            if self.quantum is not None:
                kwargs["quantum"] = self.quantum
            if record is not None:
                context_class = RecordingContext
                kwargs["recorder"] = record
            else:
                context_class = ProcessContext
            ctx = context_class(
                name=name,
                cycle_ns=pe.cycle_ns,
                comm=binding,
                sim_process=None,  # bound below
                granularity=self.granularity,
                cpu_share=shares.get(decl.pe_name),
                **kwargs,
            )
            contexts[name] = ctx
            target = self._make_target(generated, decl, ctx, returns)
            if active is not None:
                target = active.wrap_target(target)
            sim_process = kernel.add_process(name, target)
            ctx.sim_process = sim_process

        wall_start = time.perf_counter()
        end_time = kernel.run(until=until, watchdog=watchdog)
        wall_seconds = time.perf_counter() - wall_start

        processes = {}
        for name, ctx in contexts.items():
            decl = self.programs[name][1]
            processes[name] = ProcessResult(
                name,
                decl.pe_name,
                ctx.total_cycles,
                ctx.n_transactions,
                returns.get(name),
            )
        stats = kernel.kernel_stats()
        bus_stats = collect_bus_stats(buses)
        for per_bus in bus_stats.values():
            SIM_TOTALS["bus_grants"] += per_bus["grants"]
            SIM_TOTALS["bus_stall_cycles"] += per_bus["stall_cycles"]
        return TLMResult(
            self.design.name,
            self.timed,
            end_time,
            wall_seconds,
            processes,
            self.reference_cycle_ns,
            kernel_stats=stats,
            fault_stats=active.counters() if active is not None else None,
            bus_stats=bus_stats,
        )

    @staticmethod
    def _make_target(generated, decl, ctx, returns):
        entry = generated.entry(decl.entry)
        args = decl.args

        if generated.is_suspending(decl.entry):
            def target(sim_process):
                glob = generated.fresh_globals()
                returns[decl.name] = yield from entry(ctx, glob, *args)
                yield from ctx.sync_gen()  # trailing accumulated delay
        else:
            def target(sim_process):
                glob = generated.fresh_globals()
                returns[decl.name] = entry(ctx, glob, *args)
                yield from ctx.sync_gen()  # trailing accumulated delay

        return target
