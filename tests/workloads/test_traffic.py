"""Traffic workload engine: seeded arrivals, N-instance runs, latencies.

The engine spawns N instances of one design (private channels and CPU
shares, shared buses) under a seeded arrival process.  These tests pin the
spec's validation and determinism, the single-instance anchor (one instance
== the plain TLM makespan), bit-identity with the heap oracle
(``tests/simkernel/reference_kernel.py``) at traffic scale, watchdog
transparency, fault-scenario composition, and the per-instance latency
statistics.
"""

import pytest

from repro.apps.mp3 import Mp3Params, build_design
from repro.faults import ChannelFault, FaultScenario
from repro.simkernel import Watchdog
from repro.tlm import generate_tlm
from repro.workloads import (
    TrafficError,
    TrafficSpec,
    capture_traffic_profile,
    run_traffic,
)

from ..simkernel.reference_kernel import ReferenceKernel, counters

SMALL = Mp3Params(n_subbands=4, n_slots=4, n_phases=4, n_alias=2)


def _design(policy=None):
    design, _ = build_design("SW+1", SMALL, n_frames=1, seed=3)
    if policy is not None:
        for bus in design.buses.values():
            bus.policy = policy
    return design


def _outcome(result):
    """What a kernel run must reproduce: timing, per-instance latencies,
    bus and fault counters, and the kernel's own counters."""
    return (
        result.makespan_cycles,
        result.end_time_ns,
        result.latencies_cycles,
        result.bus_stats,
        result.fault_stats,
        counters(result.kernel_stats),
    )


def _use_oracle(monkeypatch):
    """Run every later TLM capture and traffic kernel on the heap oracle."""
    monkeypatch.setattr("repro.tlm.model.Kernel", ReferenceKernel)
    monkeypatch.setattr("repro.workloads.traffic.Kernel", ReferenceKernel)


#: N=64 fifo points: every instance arriving at once, and bursts of 8.
ORACLE_SPECS = [
    TrafficSpec(64, arrivals="bursty", burst_size=64, mean_gap_cycles=0.0),
    TrafficSpec(64, arrivals="bursty", burst_size=8, mean_gap_cycles=300.0,
                seed=5),
]


class TestTrafficSpec:
    def test_validation(self):
        with pytest.raises(TrafficError):
            TrafficSpec(0)
        with pytest.raises(TrafficError):
            TrafficSpec(4, arrivals="uniform")
        with pytest.raises(TrafficError):
            TrafficSpec(4, mean_gap_cycles=-1.0)
        with pytest.raises(TrafficError):
            TrafficSpec(4, arrivals="bursty", burst_size=0)

    def test_offsets_deterministic_and_integral(self):
        spec = TrafficSpec(16, arrivals="poisson", mean_gap_cycles=500.0,
                           seed=11)
        first = spec.arrival_offsets()
        second = spec.arrival_offsets()
        assert first == second
        assert len(first) == 16
        assert all(isinstance(o, int) for o in first)
        assert first == sorted(first)
        # A different seed really moves the arrivals.
        assert TrafficSpec(16, mean_gap_cycles=500.0,
                           seed=12).arrival_offsets() != first

    def test_bursty_offsets_arrive_in_groups(self):
        spec = TrafficSpec(12, arrivals="bursty", burst_size=4,
                           mean_gap_cycles=1000.0, seed=3)
        offsets = spec.arrival_offsets()
        assert len(offsets) == 12
        # Exactly n/burst_size distinct instants, burst_size sharers each.
        assert len(set(offsets)) == 3
        for instant in set(offsets):
            assert offsets.count(instant) == 4

    def test_zero_gap_burst_is_lockstep(self):
        offsets = TrafficSpec(8, arrivals="bursty", burst_size=8,
                              mean_gap_cycles=0.0).arrival_offsets()
        assert offsets == [0] * 8

    def test_dict_round_trip(self):
        spec = TrafficSpec(32, arrivals="bursty", mean_gap_cycles=250.0,
                           burst_size=5, seed=9)
        clone = TrafficSpec.from_dict(spec.to_dict())
        assert clone.to_dict() == spec.to_dict()
        assert clone.arrival_offsets() == spec.arrival_offsets()


class TestRunTraffic:
    def test_single_instance_matches_plain_tlm(self):
        plain = generate_tlm(_design()).run()
        traffic = run_traffic(_design(), TrafficSpec(1))
        assert traffic.makespan_cycles == plain.makespan_cycles
        assert traffic.n_instances == 1
        assert traffic.latencies_cycles == [plain.makespan_cycles]

    def test_heap_and_wheel_bit_identical(self, monkeypatch):
        """The bucket kernel (which reports scheduler ``"wheel"``) matches
        the heap oracle on lockstep and bursty N=64 fifo traffic."""
        kernel = [run_traffic(_design("fifo"), spec)
                  for spec in ORACLE_SPECS]
        assert all(r.kernel_stats["scheduler"] == "wheel" for r in kernel)
        assert all(r.bus_stats["sysbus"]["queued_grants"] > 0 for r in kernel)
        _use_oracle(monkeypatch)
        oracle = [run_traffic(_design("fifo"), spec)
                  for spec in ORACLE_SPECS]
        assert all(r.kernel_stats["scheduler"] == "heap" for r in oracle)
        assert ([_outcome(r) for r in kernel]
                == [_outcome(r) for r in oracle])

    def test_generous_watchdog_changes_nothing(self):
        """An armed watchdog that never trips drains the buckets in chunks
        and returns exactly what the unarmed run does."""
        generous = Watchdog(max_wall_seconds=3600.0, max_sim_time=1e15,
                            max_stalled_activations=10_000,
                            wall_check_interval=7)
        spec = ORACLE_SPECS[0]
        plain = run_traffic(_design("fifo"), spec)
        armed = run_traffic(_design("fifo"), spec, watchdog=generous)
        assert _outcome(armed) == _outcome(plain)

    def test_fixed_seed_is_reproducible(self):
        spec = TrafficSpec(8, arrivals="bursty", burst_size=4, seed=21)
        first = run_traffic(_design("fifo"), spec)
        second = run_traffic(_design("fifo"), spec)
        assert first.latencies_cycles == second.latencies_cycles
        assert first.makespan_cycles == second.makespan_cycles

    def test_profile_reuse_matches_fresh_capture(self):
        design = _design("fifo")
        profile = capture_traffic_profile(design)
        spec = TrafficSpec(6, arrivals="poisson", mean_gap_cycles=200.0)
        fresh = run_traffic(design, spec)
        reused = run_traffic(design, spec, profile=profile)
        assert fresh.latencies_cycles == reused.latencies_cycles

    def test_shared_bus_contention_is_counted(self):
        # Lockstep arrivals on an arbitrated bus must queue.
        spec = TrafficSpec(8, arrivals="bursty", burst_size=8,
                           mean_gap_cycles=0.0)
        result = run_traffic(_design("fifo"), spec)
        stats = result.bus_stats["sysbus"]
        assert stats["queued_grants"] > 0
        assert stats["stall_cycles"] > 0
        # Queuing pushes the stragglers' latencies above the lone run's.
        solo = run_traffic(_design("fifo"), TrafficSpec(1))
        assert max(result.latencies_cycles) > solo.makespan_cycles

    def test_latency_statistics(self):
        spec = TrafficSpec(16, arrivals="poisson", mean_gap_cycles=400.0,
                           seed=2)
        result = run_traffic(_design(), spec)
        summary = result.latency_summary()
        assert summary["min"] == min(result.latencies_cycles)
        assert summary["max"] == max(result.latencies_cycles)
        assert summary["min"] <= summary["p50"] <= summary["p90"]
        assert summary["p90"] <= summary["p95"] <= summary["p99"]
        assert summary["p99"] <= summary["max"]
        assert result.latency_percentile(95) == summary["p95"]
        assert result.latency_percentile(100) == summary["max"]

    @pytest.mark.parametrize("q", [-1, -0.5, 100.1, 101, 1000])
    def test_latency_percentile_rejects_out_of_range(self, q):
        result = run_traffic(_design(), TrafficSpec(2))
        with pytest.raises(TrafficError) as exc_info:
            result.latency_percentile(q)
        assert "outside [0, 100]" in str(exc_info.value)

    def test_faults_compose_with_traffic(self):
        slow = FaultScenario("slow", faults=[
            ChannelFault("delay", "filter_l_req", cycles=100),
        ])
        spec = TrafficSpec(4, arrivals="bursty", burst_size=4,
                           mean_gap_cycles=0.0)
        clean = run_traffic(_design("fifo"), spec)
        runs = [run_traffic(_design("fifo"), spec, faults=slow)
                for _ in range(2)]
        assert runs[0].latencies_cycles == runs[1].latencies_cycles
        assert runs[0].fault_stats["total_events"] > 0
        assert runs[0].makespan_cycles > clean.makespan_cycles

    @pytest.mark.parametrize("n", [1, 64, 130])
    def test_schedulers_identical_under_faults(self, n, monkeypatch):
        """Fault injection composed with traffic must stay bit-identical
        between the kernel and the heap oracle at any instance count."""
        slow = FaultScenario("slow", faults=[
            ChannelFault("delay", "filter_l_req", cycles=64),
        ])
        spec = TrafficSpec(n, arrivals="poisson", mean_gap_cycles=350.0,
                           seed=13)
        kernel = run_traffic(_design("fifo"), spec, faults=slow)
        assert kernel.fault_stats["total_events"] > 0
        _use_oracle(monkeypatch)
        oracle = run_traffic(_design("fifo"), spec, faults=slow)
        assert _outcome(kernel) == _outcome(oracle)


class TestExploreIntegration:
    def test_traffic_meta_forms(self):
        from repro.explore import _traffic_spec_of

        class Point:
            def __init__(self, meta):
                self.meta = meta

        assert _traffic_spec_of(Point({})) is None
        bare = _traffic_spec_of(Point({"traffic": 4}))
        assert bare.n_instances == 4
        assert bare.arrivals == "bursty"
        from_dict = _traffic_spec_of(Point({"traffic": {
            "n_instances": 3, "arrivals": "poisson",
        }}))
        assert from_dict.n_instances == 3
        spec = TrafficSpec(2)
        assert _traffic_spec_of(Point({"traffic": spec})) is spec

    def test_explore_traffic_points_rank(self):
        from repro.explore import explore, mp3_traffic_points

        points = mp3_traffic_points(
            params=SMALL, variant="SW+1", n_instances=(1, 4), seed=3,
        )
        outcome = explore(points, replay="auto")
        assert not outcome.failures
        by_name = {r.point.name: r for r in outcome.results}
        x1 = next(r for name, r in by_name.items() if "x1" in name)
        x4 = next(r for name, r in by_name.items() if "x4" in name)
        assert x4.makespan_cycles > x1.makespan_cycles
        assert len(x4.per_process_cycles) == 4
        assert outcome.replay_stats["traffic_points"] == 2
