"""Analytic traffic replay: exactness, flags, validation and fallbacks.

The replay tier (:mod:`repro.workloads.traffic_replay`) evaluates
N-instance traffic points from ONE recorded instance trace without the
kernel.  These tests pin its exactness contract: fifo replays are
bit-identical to the kernel (and to the heap scheduler kept as its test
oracle) across granularities and instance counts; priority/rr replays are
cross-validated and a divergence falls the whole group back to kernel
runs; flagged points (simultaneous requests, contended release
boundaries) individually fall back; unsupported shapes fall back
wholesale — the tier is never silently wrong, only slower.
"""

import random

import pytest

from repro.apps.mp3 import Mp3Params, build_design
from repro.workloads import (
    ReplayUnsupported,
    TrafficError,
    TrafficSpec,
    compile_replay_plan,
    replay_traffic_sweep,
    run_traffic,
)
from repro.workloads import traffic_replay

from ..simkernel.reference_kernel import ReferenceKernel

SMALL = Mp3Params(n_subbands=4, n_slots=4, n_phases=4, n_alias=2)


def _design(policy="fifo", priorities=None):
    design, _ = build_design("SW+1", SMALL, n_frames=1, seed=3)
    if policy is not None:
        for bus in design.buses.values():
            bus.policy = policy
            if priorities is not None:
                bus.priorities = dict(priorities)
    return design


def _key(result):
    """Everything the acceptance contract compares, as one hashable."""
    return (
        result.makespan_cycles,
        result.end_time_ns,
        tuple(result.latencies_cycles),
        tuple(sorted(
            (bus, tuple(sorted(stats.items())))
            for bus, stats in result.bus_stats.items()
        )),
    )


def _poisson(n, gap=500.0, seed=7):
    return TrafficSpec(n, arrivals="poisson", mean_gap_cycles=gap, seed=seed)


class TestFifoBitIdentity:
    @pytest.mark.parametrize("scheduler", ["heap", "wheel"])
    @pytest.mark.parametrize("granularity", ["transaction", "block"])
    @pytest.mark.parametrize("n", [1, 8, 64])
    def test_replay_matches_kernel(self, scheduler, granularity, n,
                                   monkeypatch):
        """The acceptance property: fifo replay is bit-identical to the
        kernel — makespan, end time, every latency, every bus counter.
        The kernel side runs on the production event loop (``"wheel"``)
        and on the heap oracle (``"heap"``)."""
        spec = _poisson(n)
        results, stats = replay_traffic_sweep(
            _design(), [spec], granularity=granularity, validate_n=0,
        )
        assert stats["replayed"] == 1  # really took the analytic path
        assert results[0].replayed
        if scheduler == "heap":
            monkeypatch.setattr("repro.workloads.traffic.Kernel",
                                ReferenceKernel)
        kernel = run_traffic(_design(), spec, granularity=granularity)
        assert kernel.kernel_stats["scheduler"] == scheduler
        assert _key(results[0]) == _key(kernel)

    def test_replayed_result_reports_replay_engine(self):
        results, stats = replay_traffic_sweep(
            _design(), [_poisson(8)], validate_n=0)
        assert results[0].kernel_stats["engine"] == "replay"
        assert results[0].replayed
        assert stats["self_check"] == "ok"

    def test_sweep_shares_one_capture(self):
        """K points cost one capture + K analytic passes, not K kernel
        runs; the validated point is the only simulation."""
        specs = [_poisson(8, seed=s) for s in range(4)]
        results, stats = replay_traffic_sweep(_design(), specs)
        assert stats["points"] == 4
        # The validated point returns the (authoritative) kernel result, so
        # it counts as simulated; the other three never touch the kernel.
        assert stats["replayed"] == 3
        assert stats["validated"] == 1
        assert stats["simulated"] == 1
        assert stats["flagged"] == 0
        for spec, result in zip(specs, results):
            assert _key(result) == _key(run_traffic(_design(), spec))


class TestScalarFallbackEngine:
    def test_scalar_engine_bit_identical(self):
        """The numpy folds (one ``add.accumulate`` over a lane grid or a
        long segment) produce the exact floats of the scalar left fold —
        both sum left to right."""
        rng = random.Random("fold")
        deltas = [rng.choice((10.0, 0.1, 3.3, 1e-3, 7.77))
                  * rng.randrange(1, 1000) for _ in range(300)]
        starts = [rng.uniform(0.0, 1e7) for _ in range(40)]
        scalar = [traffic_replay._chain(t, deltas) for t in starts]
        # over 256 cells, so _chain_rows takes the numpy grid pass
        assert traffic_replay._chain_rows(starts, deltas) == scalar
        segment = traffic_replay._Node(deltas).arr  # > 64 deltas: numpy
        assert segment is not None
        assert [traffic_replay._chain(t, deltas, segment)
                for t in starts] == scalar
        spec = _poisson(16)
        results, stats = replay_traffic_sweep(
            _design(), [spec], validate_n=0)
        assert stats["replayed"] == 1
        assert _key(results[0]) == _key(run_traffic(_design(), spec))


class TestValidationPolicy:
    @pytest.mark.parametrize("policy,priorities", [
        ("priority", {"filter_l": 1, "filter_r": 2}),
        ("rr", None),
    ])
    def test_non_fifo_policies_validate_and_match(self, policy, priorities):
        """priority/rr never replay unvalidated: at least one point runs on
        the kernel, and accepted replays match it bit-identically."""
        specs = [_poisson(12, seed=s) for s in (1, 2)]
        results, stats = replay_traffic_sweep(
            _design(policy, priorities), specs, validate_n=0)
        assert stats["validated"] >= 1
        assert "diverged" not in stats
        for spec, result in zip(specs, results):
            assert _key(result) == _key(
                run_traffic(_design(policy, priorities), spec))

    def test_divergence_falls_whole_group_back(self, monkeypatch):
        """A validation mismatch may mean any replayed point is wrong, so
        the entire group re-runs on the kernel — never silently wrong."""
        monkeypatch.setattr(traffic_replay, "_identical",
                            lambda replayed, reference: False)
        specs = [_poisson(8, seed=s) for s in (1, 2, 3)]
        results, stats = replay_traffic_sweep(_design(), specs, validate_n=1)
        assert stats["diverged"] is True
        assert stats["replayed"] == 0
        # Every analytic result is discarded: the diverging validated point
        # already holds its kernel run, the rest re-run as fallbacks.
        assert (stats["fallbacks"] + stats["validated"] + stats["flagged"]
                == len(specs))
        for spec, result in zip(specs, results):
            assert not result.replayed
            assert _key(result) == _key(run_traffic(_design(), spec))


class TestFlagsAndFallbacks:
    def test_lockstep_burst_flags_and_falls_back(self):
        """N instances requesting one bus at the same instant is exactly
        the load-dependent tie the replay refuses to guess at."""
        spec = TrafficSpec(8, arrivals="bursty", burst_size=8,
                           mean_gap_cycles=0.0)
        results, stats = replay_traffic_sweep(
            _design(), [spec], validate_n=0)
        assert stats["flagged"] == 1
        assert stats["replayed"] == 0
        assert stats["flag_reasons"]
        assert not results[0].replayed
        assert _key(results[0]) == _key(run_traffic(_design(), spec))

    def test_plain_bus_design_is_unsupported(self):
        """Channels riding a policy-less bus resolve contention by retry
        polling — seq-tied, not replayable — so the sweep falls back."""
        spec = _poisson(4)
        results, stats = replay_traffic_sweep(
            _design(policy=None), [spec], validate_n=0)
        assert "unsupported" in stats
        assert stats["replayed"] == 0
        assert stats["fallbacks"] == 1
        assert _key(results[0]) == _key(run_traffic(_design(None), spec))

    def test_compile_rejects_plain_bus_design(self):
        from repro.workloads.traffic import capture_traffic_profile

        design = _design(policy=None)
        profile = capture_traffic_profile(design)
        with pytest.raises(ReplayUnsupported):
            compile_replay_plan(profile, design)


class TestRunTrafficReplayAuto:
    def test_auto_matches_off(self):
        spec = _poisson(16)
        auto = run_traffic(_design(), spec, replay="auto")
        off = run_traffic(_design(), spec, replay="off")
        assert auto.replayed
        assert auto.replay_stats["replayed"] == 1
        assert _key(auto) == _key(off)

    def test_bad_replay_mode_rejected(self):
        with pytest.raises(TrafficError):
            run_traffic(_design(), TrafficSpec(2), replay="always")

    def test_faults_force_kernel_path(self):
        from repro.faults import ChannelFault, FaultScenario

        slow = FaultScenario("slow", faults=[
            ChannelFault("delay", "filter_l_req", cycles=100),
        ])
        result = run_traffic(_design(), _poisson(4), replay="auto",
                             faults=slow)
        assert not result.replayed
        assert result.fault_stats["total_events"] > 0


class TestExploreTrafficReplayTier:
    def test_explore_replays_traffic_points(self):
        from repro.explore import explore, mp3_traffic_points

        def points():
            return mp3_traffic_points(
                params=SMALL, variant="SW+1", n_instances=(2, 6), seed=3,
                arrivals="poisson", mean_gap_cycles=500.0, traffic_seed=7,
            )

        replayed = explore(points(), replay="auto")
        assert not replayed.failures
        stats = replayed.replay_stats
        assert stats["traffic_points"] == 2
        assert stats["traffic_replayed"] > 0
        simulated = explore(points(), replay="off")
        for fast, slow in zip(
            sorted(replayed.results, key=lambda r: r.point.name),
            sorted(simulated.results, key=lambda r: r.point.name),
        ):
            assert fast.makespan_cycles == slow.makespan_cycles
            assert fast.per_process_cycles == slow.per_process_cycles
