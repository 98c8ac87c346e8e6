"""Traffic-scale workloads: many app instances over one platform.

ROADMAP item 2's "heavy traffic as a simulated scenario, not just a
metaphor": a seeded arrival process spawns N instances of an application
over a single platform, the instances contend for the shared interconnect
(see :mod:`repro.tlm.contention`), and the run reports per-instance latency
percentiles, makespan and bus utilization — the numbers a capacity planner
reads off a load test, produced by the timed TLM.

The engine is *profile-replay*, the same trick :mod:`repro.simtrace` uses
for sweeps: the application is simulated **once** with a
:class:`~repro.simkernel.TraceRecorder` attached, and each traffic instance
is then a lightweight generator re-issuing the recorded op stream (waits,
sends, receives with zero payloads) through its own private channels bound
to the *shared* buses.  Hundreds of instances therefore cost what hundreds
of stub processes cost, not hundreds of full decoder executions — exactly
the regime the kernel's per-timestamp buckets are built for.

Determinism: arrival offsets come from a string-seeded RNG stream
(``random.Random("repro-traffic:<seed>:<stream>")`` — the
:mod:`repro.faults` pattern), are quantized to integer reference cycles and
depend on nothing but the spec.  All simulated timing then derives from the
kernel's ``(when, seq)`` order, so one seed produces identical
per-instance latencies across runs.

Fault scenarios compose: instance channels keep their base channel names,
so a :class:`~repro.faults.FaultScenario` targeting ``"filter0_req"``
matches that channel in *every* instance, and injected delays stack with
arbitration queuing delays deterministically.
"""

from __future__ import annotations

import random
import time

from ..simkernel import BusChannel, ChannelMap, Kernel, TraceRecorder
from ..simkernel.kernel import OP_SEND, OP_WAIT, SIM_TOTALS, SimulationError
from ..tlm.contention import build_bus, collect_bus_stats
from ..tlm.generator import generate_tlm
from ..tlm.model import REFERENCE_CYCLE_NS
from ..tlm.serialize import design_from_dict, design_to_dict

ARRIVALS = ("poisson", "bursty")


class TrafficError(SimulationError):
    """Raised for invalid traffic specifications."""

    code = "traffic"


class TrafficSpec:
    """A seeded arrival process for N application instances.

    Args:
        n_instances: how many instances to spawn.
        arrivals: ``"poisson"`` — independent exponential inter-arrival
            gaps with mean ``mean_gap_cycles``; ``"bursty"`` — an on/off
            process: bursts of ``burst_size`` simultaneous arrivals,
            exponential gaps with mean ``mean_gap_cycles`` between bursts
            (the flash-crowd shape).
        mean_gap_cycles: mean gap in reference cycles (between arrivals
            for Poisson, between bursts for bursty).
        burst_size: arrivals per burst (bursty only).
        seed: RNG seed; same seed ⇒ identical offsets, forever.
    """

    __slots__ = ("n_instances", "arrivals", "mean_gap_cycles", "burst_size",
                 "seed")

    def __init__(self, n_instances, arrivals="poisson",
                 mean_gap_cycles=1000.0, burst_size=8, seed=0):
        if n_instances < 1:
            raise TrafficError("n_instances must be >= 1")
        if arrivals not in ARRIVALS:
            raise TrafficError(
                "unknown arrival process %r (choose %s)"
                % (arrivals, ", ".join(ARRIVALS))
            )
        if mean_gap_cycles < 0:
            raise TrafficError("mean_gap_cycles must be >= 0")
        if burst_size < 1:
            raise TrafficError("burst_size must be >= 1")
        self.n_instances = n_instances
        self.arrivals = arrivals
        self.mean_gap_cycles = mean_gap_cycles
        self.burst_size = burst_size
        self.seed = seed

    def to_dict(self):
        return {
            "n_instances": self.n_instances,
            "arrivals": self.arrivals,
            "mean_gap_cycles": self.mean_gap_cycles,
            "burst_size": self.burst_size,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data):
        return cls(
            n_instances=data["n_instances"],
            arrivals=data.get("arrivals", "poisson"),
            mean_gap_cycles=data.get("mean_gap_cycles", 1000.0),
            burst_size=data.get("burst_size", 8),
            seed=data.get("seed", 0),
        )

    def arrival_offsets(self):
        """Per-instance arrival offsets in integer reference cycles.

        Quantizing to whole cycles keeps every arrival on the simulation's
        exact float grid (all TLM delays are integer cycle multiples), so
        concurrent instances share timestamps instead of scattering events
        across float-distinct instants.
        """
        rng = random.Random("repro-traffic:%d:%d" % (self.seed, 0))
        offsets = []
        clock = 0.0
        if self.arrivals == "poisson":
            for _ in range(self.n_instances):
                offsets.append(int(round(clock)))
                clock += rng.expovariate(1.0 / self.mean_gap_cycles) \
                    if self.mean_gap_cycles > 0 else 0.0
        else:  # bursty
            spawned = 0
            while spawned < self.n_instances:
                burst = min(self.burst_size, self.n_instances - spawned)
                offsets.extend([int(round(clock))] * burst)
                spawned += burst
                clock += rng.expovariate(1.0 / self.mean_gap_cycles) \
                    if self.mean_gap_cycles > 0 else 0.0
        return offsets

    def __repr__(self):
        return "TrafficSpec(%d x %s, seed=%d)" % (
            self.n_instances, self.arrivals, self.seed,
        )


class TrafficResult:
    """Outcome of one traffic run."""

    def __init__(self, design_name, spec, end_time_ns, wall_seconds,
                 latencies_cycles, reference_cycle_ns, kernel_stats,
                 bus_stats, fault_stats=None, replayed=False):
        self.design_name = design_name
        self.spec = spec
        self.end_time_ns = end_time_ns
        self.wall_seconds = wall_seconds
        #: per-instance latency (arrival -> last process finish), in
        #: reference cycles, indexed by instance
        self.latencies_cycles = latencies_cycles
        self.reference_cycle_ns = reference_cycle_ns
        self.kernel_stats = kernel_stats
        self.bus_stats = bus_stats
        self.fault_stats = fault_stats or {}
        #: ``True`` when the point was evaluated by the analytic grant-queue
        #: replay (:mod:`repro.workloads.traffic_replay`), not the kernel
        self.replayed = replayed
        #: replay-tier counters when :func:`run_traffic` ran with
        #: ``replay != "off"`` (``None`` for plain kernel runs)
        self.replay_stats = None

    @property
    def makespan_cycles(self):
        """First arrival to last completion, in reference cycles."""
        return int(round(self.end_time_ns / self.reference_cycle_ns))

    @property
    def n_instances(self):
        return len(self.latencies_cycles)

    def latency_percentile(self, q):
        """Nearest-rank percentile of the per-instance latencies."""
        if not 0 <= q <= 100:
            raise TrafficError(
                "latency percentile q=%r outside [0, 100]" % (q,)
            )
        ordered = sorted(self.latencies_cycles)
        if not ordered:
            return 0
        rank = max(1, -(-int(q) * len(ordered) // 100))  # ceil(q*n/100)
        return ordered[min(rank, len(ordered)) - 1]

    def latency_summary(self):
        ordered = sorted(self.latencies_cycles)
        return {
            "min": ordered[0],
            "p50": self.latency_percentile(50),
            "p90": self.latency_percentile(90),
            "p95": self.latency_percentile(95),
            "p99": self.latency_percentile(99),
            "max": ordered[-1],
            "mean": sum(ordered) / len(ordered),
        }

    def events_per_second(self):
        if self.wall_seconds <= 0:
            return 0.0
        return self.kernel_stats["events_scheduled"] / self.wall_seconds

    def __repr__(self):
        return "TrafficResult(%r, %d instances, makespan=%d cycles)" % (
            self.design_name, self.n_instances, self.makespan_cycles,
        )


class TrafficProfile:
    """The recorded single-instance op streams a traffic run replays."""

    __slots__ = ("design_name", "ops", "process_cycle_ns", "process_pe",
                 "reference_cycle_ns", "granularity", "grants")

    def __init__(self, design_name, ops, process_cycle_ns, process_pe,
                 reference_cycle_ns, granularity, grants=None):
        self.design_name = design_name
        self.ops = ops  # process name -> [(seq, op, a, b)]
        self.process_cycle_ns = process_cycle_ns  # process name -> PE ns
        self.process_pe = process_pe  # process name -> PE name
        self.reference_cycle_ns = reference_cycle_ns
        self.granularity = granularity
        #: bus name -> [(seq, master, n_words, when_ns)] when the capture
        #: ran the design's real arbiters uncontended (``None`` otherwise);
        #: the analytic replay self-checks against these streams
        self.grants = grants

    def n_ops(self):
        return sum(len(ops) for ops in self.ops.values())


def capture_traffic_profile(design, granularity="transaction",
                            quantum=None, store=None, record_grants=False):
    """Record one instance's op streams for :func:`run_traffic`.

    By default the recording run uses a copy of ``design`` with dynamic
    arbitration stripped: a single uncontended instance is bit-identical
    with or without an arbiter (the O(1) fast path charges the same
    arithmetic).  With ``record_grants=True`` the capture first tries the
    design's *real* arbiters — an uncontended (fast-path only) run records
    per-bus grant streams the analytic replay self-checks against; should
    a grant queue (the recording aborts inside the bus, because queued
    grant order is load-dependent), the capture transparently falls back
    to the stripped run with no grant streams.  The op streams themselves
    are identical either way — op content never depends on bus timing.
    """
    grants = None
    recorder = TraceRecorder()
    if record_grants and any(
            getattr(bus, "policy", None) is not None
            for bus in design.buses.values()):
        armed = generate_tlm(
            design, timed=True, granularity=granularity, quantum=quantum,
            store=store,
        )
        try:
            armed.run(record=recorder)
        except SimulationError:
            recorder = TraceRecorder()  # contended capture: start over
        else:
            grants = {
                name: tuple(stream)
                for name, stream in recorder.grants.items()
            }
    if grants is None:
        plain = design_from_dict(design_to_dict(design))
        for bus in plain.buses.values():
            bus.policy = None
            bus.priorities = {}
        model = generate_tlm(
            plain, timed=True, granularity=granularity, quantum=quantum,
            store=store,
        )
        model.run(record=recorder)
    process_cycle_ns = {}
    process_pe = {}
    for name, decl in design.processes.items():
        process_cycle_ns[name] = design.pes[decl.pe_name].cycle_ns
        process_pe[name] = decl.pe_name
    return TrafficProfile(
        design.name,
        {name: tuple(ops) for name, ops in recorder.ops.items()},
        process_cycle_ns,
        process_pe,
        REFERENCE_CYCLE_NS,
        granularity,
        grants=grants,
    )


def _compile_waits(ops, cycle_ns):
    """Precompiled delay list for a pure-computation op stream.

    Returns ``None`` when the stream contains channel ops (those need the
    full replayer); otherwise the non-zero kernel delays, ready to yield.
    Computed once per profile and shared by every instance — at N=256 the
    per-event tuple unpack and opcode dispatch would otherwise dominate.
    """
    delays = []
    for _, op, a, _b in ops:
        if op != OP_WAIT:
            return None
        if a:
            delays.append(a * cycle_ns)
    return delays


def _wait_target(delays, offset_ns, finish):
    """Replay target for a pure-wait process (no channels, no RTOS)."""
    def target(sim_process):
        if offset_ns:
            yield offset_ns
        # ``yield from`` delegates straight to the list iterator, so each
        # kernel resume re-enters through one SEND opcode instead of a
        # Python-level loop body — measurable at traffic scale.
        yield from delays
        finish()

    return target


def _instance_target(ops, cycle_ns, share, channel_map, proc_name,
                     offset_ns, finish):
    """One traffic process: delay to the arrival, replay the op stream.

    Mirrors the simtrace stub replayer: waits become kernel delays (or
    RTOS-share executions), channel ops go through the real generator
    interfaces with zero payloads (payload content never affects timing).
    """
    def target(sim_process):
        if offset_ns:
            yield offset_ns
        if share is None:
            for _, op, a, b in ops:
                if op == OP_WAIT:
                    if a:
                        yield a * cycle_ns
                elif op == OP_SEND:
                    yield from channel_map.get(a).send_gen(
                        sim_process, [0] * b
                    )
                else:  # OP_RECV
                    yield from channel_map.get(a).recv_gen(sim_process, b)
        else:
            for _, op, a, b in ops:
                if op == OP_WAIT:
                    yield from share.execute_gen(sim_process, proc_name, a)
                elif op == OP_SEND:
                    yield from channel_map.get(a).send_gen(
                        sim_process, [0] * b
                    )
                else:  # OP_RECV
                    yield from channel_map.get(a).recv_gen(sim_process, b)
        finish()

    return target


def run_traffic(design, spec, granularity="transaction", quantum=None,
                faults=None, watchdog=None, store=None, profile=None,
                replay="off"):
    """Simulate ``spec.n_instances`` instances of ``design`` under the
    spec's arrival process; returns a :class:`TrafficResult`.

    Compute is replicated per instance (each instance gets private
    channels and, on RTOS PEs, a private CPU share — horizontal scaling),
    while every bus declared by the design is **shared** across instances;
    buses with an arbitration policy resolve the resulting contention with
    real queuing delays.

    ``profile`` short-circuits the capture step with a pre-recorded
    :class:`TrafficProfile` (sweeps capture once and replay many).
    ``faults`` composes a :class:`~repro.faults.FaultScenario` into every
    instance's channels.

    ``replay="auto"`` evaluates the point through the analytic grant-queue
    replay (:mod:`repro.workloads.traffic_replay`) where it is exact,
    falling back to this kernel path otherwise; the result then carries
    the tier's counters on ``.replay_stats``.  Fault injection and
    watchdogs force the kernel path (they are simulation-only semantics).
    """
    if replay not in ("off", "auto"):
        raise TrafficError(
            "replay must be 'off' or 'auto', not %r" % (replay,)
        )
    if replay == "auto" and faults is None and watchdog is None:
        from .traffic_replay import replay_traffic_sweep

        results, stats = replay_traffic_sweep(
            design, [spec], granularity=granularity, quantum=quantum,
            store=store, profile=profile, validate_n=0,
        )
        result = results[0]
        result.replay_stats = stats
        return result
    if profile is None:
        profile = capture_traffic_profile(
            design, granularity=granularity, quantum=quantum, store=store,
        )
    reference_cycle_ns = profile.reference_cycle_ns
    kernel = Kernel()
    buses = {
        name: build_bus(kernel, decl)
        for name, decl in design.buses.items()
    }
    active = None
    if faults is not None:
        active = faults.activate(reference_cycle_ns)
        active.validate(
            [(chan_id, decl.name)
             for chan_id, decl in design.channels.items()],
            list(design.processes),
        )

    offsets = spec.arrival_offsets()
    n = spec.n_instances
    finishes = [0.0] * n
    arrivals_ns = [offset * reference_cycle_ns for offset in offsets]
    compiled_waits = {
        name: _compile_waits(ops, profile.process_cycle_ns[name])
        for name, ops in profile.ops.items()
    }

    def make_finish(index):
        def finish():
            if kernel.now > finishes[index]:
                finishes[index] = kernel.now
        return finish

    for index in range(n):
        channel_map = ChannelMap()
        for chan_id, chan_decl in design.channels.items():
            channel_map.add(
                chan_id,
                BusChannel(kernel, chan_decl.name,
                           buses[chan_decl.bus_name]),
            )
        if active is not None:
            channel_map = active.wrap_channel_map(channel_map)
        shares = {}
        for pe_name, pe in design.pes.items():
            if pe.rtos is not None:
                from ..rtos.model import CPUShare

                shares[pe_name] = CPUShare(
                    kernel, "%s#%d" % (pe_name, index), pe.cycle_ns, pe.rtos
                )
        finish = make_finish(index)
        for name, ops in profile.ops.items():
            share = shares.get(profile.process_pe[name])
            waits = compiled_waits[name]
            if waits is not None and share is None:
                target = _wait_target(waits, arrivals_ns[index], finish)
            else:
                target = _instance_target(
                    ops,
                    profile.process_cycle_ns[name],
                    share,
                    channel_map,
                    name,
                    arrivals_ns[index],
                    finish,
                )
            if active is not None:
                target = active.wrap_target(target)
            kernel.add_process("%s#%d" % (name, index), target)

    wall_start = time.perf_counter()
    end_time = kernel.run(watchdog=watchdog)
    wall_seconds = time.perf_counter() - wall_start

    latencies = [
        int(round((finishes[i] - arrivals_ns[i]) / reference_cycle_ns))
        for i in range(n)
    ]
    kernel_stats = kernel.kernel_stats()
    bus_stats = collect_bus_stats(buses)
    for per_bus in bus_stats.values():
        SIM_TOTALS["bus_grants"] += per_bus["grants"]
        SIM_TOTALS["bus_stall_cycles"] += per_bus["stall_cycles"]
    return TrafficResult(
        design.name,
        spec,
        end_time,
        wall_seconds,
        latencies,
        reference_cycle_ns,
        kernel_stats,
        bus_stats,
        fault_stats=active.counters() if active is not None else None,
    )
