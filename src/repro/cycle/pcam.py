"""PCAM co-simulation — the cycle-accurate multi-PE reference ("the board").

Assembles, from the same :class:`~repro.tlm.platform.Design` the TLM
generator consumes, a cycle-accurate model: R32-compiled software on the
:class:`~repro.cycle.cpu.CycleCPU` (real caches, real branch predictor),
clock-stepped custom-HW datapaths (:mod:`repro.cycle.hw`), and the shared
bus with per-transaction occupancy — all coordinated by the simulation
kernel at transaction boundaries, which is exact because PEs interact only
through channels.  Every PE runs as a kernel generator process: a CPU
yields at the events of its cycle model, a HW unit drives its interpreter
generator and yields at each ``comm`` op.

The resulting end-to-end cycle count is this repo's stand-in for the paper's
Xilinx-board measurement; per-PE cache/branch statistics feed the
calibration pass that fills the PUM's statistical models.
"""

from __future__ import annotations

import time

from ..isa.compiler import compile_program
from ..simkernel import Bus, BusChannel, ChannelMap, Kernel
from ..tlm.generator import compile_process
from .cpu import CycleCPU
from .hw import HWUnit


class PCAMError(Exception):
    """Raised for co-simulation configuration problems."""


class PEStats:
    """Per-PE outcome of a PCAM run."""

    __slots__ = ("name", "kind", "cycles", "detail", "return_value")

    def __init__(self, name, kind, cycles, detail, return_value):
        self.name = name
        self.kind = kind
        self.cycles = cycles
        self.detail = detail
        self.return_value = return_value

    def __repr__(self):
        return "PEStats(%r [%s]: %d cycles)" % (self.name, self.kind, self.cycles)


class BoardResult:
    """Outcome of one PCAM (board) run."""

    def __init__(self, design_name, end_time_ns, wall_seconds, pes, cycle_ns,
                 buses=None, kernel_stats=None, fault_stats=None,
                 traces=None):
        self.design_name = design_name
        self.end_time_ns = end_time_ns
        self.wall_seconds = wall_seconds
        self.pes = pes  # process name -> PEStats
        self.cycle_ns = cycle_ns
        #: bus name -> {"transactions": n, "words": n}
        self.buses = buses or {}
        #: scheduler counters of the run (``activations``,
        #: ``events_scheduled``, ``channel_fastpath_hits``)
        self.kernel_stats = kernel_stats or {}
        #: fault-injection counters when the run had a
        #: :class:`~repro.faults.FaultScenario` attached (``{}`` otherwise)
        self.fault_stats = fault_stats or {}
        #: process name -> :class:`~repro.trace.capture.CPUTrace` when the
        #: run was traced (``{}`` otherwise)
        self.traces = traces or {}

    @property
    def makespan_cycles(self):
        """End-to-end cycles — the "Board Cycles" column of Tables 2/3."""
        return int(round(self.end_time_ns / self.cycle_ns))

    def pe(self, name):
        return self.pes[name]

    def cpu_stats(self):
        """Merged detail stats of all CPU PEs (calibration input)."""
        merged = {}
        for stats in self.pes.values():
            if stats.kind != "cpu":
                continue
            for key, value in stats.detail.items():
                merged[key] = merged.get(key, 0) + value
        return merged

    def __repr__(self):
        return "BoardResult(%r, makespan=%d cycles, wall=%.2fs)" % (
            self.design_name, self.makespan_cycles, self.wall_seconds,
        )


def run_pcam(design, cache_schedules=True, reference_cycle_ns=10.0,
             max_instrs=500_000_000, stack_words=None, faults=None,
             watchdog=None, trace=False):
    """Run the cycle-accurate co-simulation of ``design``.

    Args:
        design: the platform + mapping description (same object the TLM
            generator takes).
        cache_schedules: memoise HW per-block schedules (identical cycle
            counts, much faster; pass ``False`` to time true clock-stepped
            PCAM simulation for the Table-1 speed column).
        reference_cycle_ns: cycle length used to convert kernel time back to
            cycles.
        max_instrs: per-CPU runaway guard.
        stack_words: optional CPU stack-size override.
        faults: optional :class:`~repro.faults.FaultScenario`; counters end
            up on ``BoardResult.fault_stats``.  ``None`` leaves the
            co-simulation untouched.
        watchdog: optional :class:`~repro.simkernel.Watchdog` run limits.
        trace: record per-CPU memory-reference streams (``True`` for the
            default line size, or an integer line size in words); traced
            streams land on ``BoardResult.traces``.  ``False`` (the
            default) changes nothing about the run.

    Returns:
        a :class:`BoardResult`.
    """
    trace_builders = {}
    if trace:
        from ..trace.capture import TraceBuilder
        from .caches import DEFAULT_LINE_WORDS

        trace_line_words = DEFAULT_LINE_WORDS if trace is True else int(trace)
    design.validate()
    kernel = Kernel()
    channel_map = ChannelMap()
    buses = {}
    for name, bus_decl in design.buses.items():
        buses[name] = Bus(
            kernel, name,
            cycle_ns=bus_decl.cycle_ns,
            words_per_cycle=bus_decl.words_per_cycle,
            arbitration_cycles=bus_decl.arbitration_cycles,
        )
    for chan_id, chan_decl in design.channels.items():
        channel_map.add(
            chan_id,
            BusChannel(kernel, chan_decl.name, buses[chan_decl.bus_name]),
        )
    active = None
    if faults is not None:
        active = faults.activate(reference_cycle_ns)
        active.validate(
            [(chan_id, channel.name) for chan_id, channel in channel_map],
            list(design.processes),
        )
        channel_map = active.wrap_channel_map(channel_map)

    cpus = {}
    hw_units = {}
    returns = {}
    for name, decl in design.processes.items():
        pe = design.pes[decl.pe_name]
        pum = pe.pum
        ir_program = compile_process(decl)
        if pum.memory is not None:
            # Software PE: compile to R32 and run on the cycle CPU.
            kwargs = {}
            if stack_words is not None:
                kwargs["stack_words"] = stack_words
            image = compile_program(
                ir_program, decl.entry, decl.args, **kwargs
            )
            policy = pum.branch.policy if pum.branch is not None else "2bit"
            builder = None
            if trace:
                builder = trace_builders[name] = TraceBuilder(trace_line_words)
            cpu = CycleCPU(
                image,
                icache_size=pum.icache_size,
                dcache_size=pum.dcache_size,
                branch_policy=policy,
                ext_latency=pum.memory.ext_latency,
                branch_penalty=(
                    pum.branch.penalty if pum.branch is not None else 0
                ),
                max_instrs=max_instrs,
                trace=builder,
            )
            cpus[name] = cpu
            target = _make_cpu_target(cpu, channel_map, pe.cycle_ns, returns,
                                      name)
        else:
            unit = HWUnit(
                name, ir_program, decl.entry, pum, decl.args,
                cache_schedules=cache_schedules,
            )
            hw_units[name] = unit
            target = _make_hw_target(unit, channel_map, pe.cycle_ns, returns,
                                     name)
        if active is not None:
            target = active.wrap_target(target)
        kernel.add_process(name, target)

    wall_start = time.perf_counter()
    end_time = kernel.run(watchdog=watchdog)
    wall_seconds = time.perf_counter() - wall_start

    pes = {}
    for name, cpu in cpus.items():
        pes[name] = PEStats(
            name, "cpu", cpu.cycle, cpu.stats(), returns.get(name)
        )
    for name, unit in hw_units.items():
        pes[name] = PEStats(
            name, "hw", unit.cycles, unit.stats(), returns.get(name)
        )
    bus_stats = {
        name: {"transactions": bus.total_transactions,
               "words": bus.total_words}
        for name, bus in buses.items()
    }
    traces = {
        name: builder.finish(cpus[name].n_instrs,
                             predictor=cpus[name].predictor)
        for name, builder in trace_builders.items()
    }
    return BoardResult(design.name, end_time, wall_seconds, pes,
                       reference_cycle_ns, buses=bus_stats,
                       kernel_stats=kernel.kernel_stats(),
                       fault_stats=(active.counters() if active is not None
                                    else None),
                       traces=traces)


def _make_cpu_target(cpu, channel_map, cycle_ns, returns, name):
    def target(sim_process):
        while True:
            event, elapsed = cpu.run_until_event()
            if elapsed:
                yield elapsed * cycle_ns
            if event.kind == "halt":
                returns[name] = cpu.return_value
                return
            channel = channel_map.get(event.chan)
            if event.kind == "send":
                payload = cpu.memory[event.addr : event.addr + event.count]
                yield from channel.send_gen(sim_process, payload)
            else:
                values = yield from channel.recv_gen(sim_process, event.count)
                cpu.complete_recv(values)

    return target


def _make_hw_target(unit, channel_map, cycle_ns, returns, name):
    # The unit's accumulated datapath cycles are applied to the kernel
    # lazily, before each channel operation and at the end (transaction-
    # boundary timing).
    def target(sim_process):
        program = unit.run_gen()
        synced = 0
        reply = None
        while True:
            try:
                kind, chan, payload = program.send(reply)
            except StopIteration as stop:
                returns[name] = stop.value
                break
            if unit.cycles > synced:
                yield (unit.cycles - synced) * cycle_ns
                synced = unit.cycles
            channel = channel_map.get(chan)
            if kind == "send":
                reply = None
                yield from channel.send_gen(sim_process, payload)
            else:
                reply = yield from channel.recv_gen(sim_process, payload)
        if unit.cycles > synced:
            yield (unit.cycles - synced) * cycle_ns

    return target
