"""Traffic-scale benchmark: N decoder instances on the kernel's event loop.

Sweeps N = 1 -> 256 MP3 decoder instances over one platform (profile-replay
traffic, quantum-granularity op streams) and times the kernel on each.
Lockstep instances share one per-timestamp bucket, which the loop drains
in one pass, so the per-event cost falls as N grows; the table reports
wall time and events per second at every N.

Correctness rides along: a single uncontended instance must reproduce the
pinned TLM golden exactly — with or without a bus arbitration policy
attached (the arbiter's uncontended fast path charges the same arithmetic
as the plain bus) — per-instance latencies must be identical across
repeated runs under a fixed traffic seed, and contended instances must
queue with deterministic delays.  Bit-identity with the heap scheduler the
loop replaced is a tier-1 property (``tests/simkernel/test_event_wheel.py``
and the oracle tests in ``tests/workloads/test_traffic.py``).

Results land in ``results/BENCH_traffic_scale.json``.
"""

from __future__ import annotations

import time

import pytest

from repro.apps.mp3 import Mp3Params, build_design
from repro.reporting import Table, fmt_seconds
from repro.workloads import TrafficSpec, capture_traffic_profile, run_traffic

EVAL_SEED = 7  # matches bench_tlm_speed: pins the goldens below
ICACHE, DCACHE = 8192, 4096
FRAMES = 1
QUANTUM = 64

#: Seed-kernel timed-TLM makespan of the SW variant (1 frame, seed 7) —
#: a single traffic instance's latency must reproduce it exactly.
SW_GOLDEN_MAKESPAN = 3528191

#: The sweep, lockstep instances per point.
SWEEP = (1, 4, 16, 64, 256)

_rows = {}


def _min_wall(runner, rounds=3):
    best = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = runner()
        best = min(best, time.perf_counter() - start)
    return best, result


def _lockstep_spec(n):
    """All N instances arrive at t=0 — the flash-crowd worst case and the
    densest same-timestamp buckets the kernel can be handed."""
    return TrafficSpec(n, arrivals="bursty", burst_size=n,
                       mean_gap_cycles=0.0, seed=1)


@pytest.fixture(scope="module")
def sw_design():
    return build_design("SW", Mp3Params(), n_frames=FRAMES, seed=EVAL_SEED,
                        icache_size=ICACHE, dcache_size=DCACHE)[0]


@pytest.fixture(scope="module")
def sw_profile(sw_design):
    """One recorded decode, replayed by every instance of every run."""
    return capture_traffic_profile(sw_design, granularity="quantum",
                                   quantum=QUANTUM)


@pytest.fixture(scope="module")
def hw_design():
    return build_design("SW+1", Mp3Params(), n_frames=FRAMES, seed=EVAL_SEED,
                        icache_size=ICACHE, dcache_size=DCACHE)[0]


# -- the sweep: wall time and event rate at every N ---------------------------

@pytest.mark.parametrize("n", SWEEP)
def test_traffic_scale_sweep(n, sw_design, sw_profile):
    """Best-of-3 kernel wall time for N lockstep instances."""
    spec = _lockstep_spec(n)
    wall, result = _min_wall(
        lambda: run_traffic(
            sw_design, spec, granularity="quantum", quantum=QUANTUM,
            profile=sw_profile,
        ),
    )
    _rows[n] = {
        "wall": wall,
        "makespan": result.makespan_cycles,
        "events": result.kernel_stats["events_scheduled"],
    }
    # No bus: lockstep instances never interact, so each one is exactly
    # the recorded decode.
    assert result.latencies_cycles == [SW_GOLDEN_MAKESPAN] * n


def test_traffic_equivalence_golden_single(sw_design, sw_profile):
    """The replay engine is exact: one instance == the pinned TLM golden."""
    result = run_traffic(sw_design, _lockstep_spec(1), granularity="quantum",
                         quantum=QUANTUM, profile=sw_profile)
    assert result.latencies_cycles == [SW_GOLDEN_MAKESPAN]
    assert result.makespan_cycles == SW_GOLDEN_MAKESPAN


def test_traffic_determinism_fixed_seed(sw_design, sw_profile):
    """Same seed => identical per-instance latencies across runs."""
    spec = TrafficSpec(32, arrivals="poisson", mean_gap_cycles=5000.0,
                       seed=42)
    baseline = None
    for _ in range(2):
        result = run_traffic(
            sw_design, spec, granularity="quantum", quantum=QUANTUM,
            profile=sw_profile,
        )
        if baseline is None:
            baseline = result.latencies_cycles
        assert result.latencies_cycles == baseline
    assert len(set(baseline)) == 1  # no bus => instances don't interact


def test_traffic_contention_fastpath_identity(hw_design):
    """A dynamic arbiter with zero contention is bit-identical to the
    static bus model: one instance, policy on vs off."""
    plain = run_traffic(hw_design, _lockstep_spec(1))
    hw_design.buses["sysbus"].policy = "fifo"
    try:
        arbitrated = run_traffic(hw_design, _lockstep_spec(1))
    finally:
        hw_design.buses["sysbus"].policy = None
    assert plain.makespan_cycles == arbitrated.makespan_cycles
    assert plain.latencies_cycles == arbitrated.latencies_cycles
    stats = arbitrated.bus_stats["sysbus"]
    assert stats["queued_grants"] == 0
    assert stats["grants"] > 0
    _rows["contention_single"] = {
        "makespan": arbitrated.makespan_cycles,
        "grants": stats["grants"],
    }


def test_traffic_contention_under_load(hw_design):
    """Contended instances queue on the shared bus: deterministic queuing
    delays, visible in the per-bus counters, identical across runs."""
    spec = _lockstep_spec(8)
    hw_design.buses["sysbus"].policy = "fifo"
    try:
        first = run_traffic(hw_design, spec)
        second = run_traffic(hw_design, spec)
    finally:
        hw_design.buses["sysbus"].policy = None
    assert first.makespan_cycles == second.makespan_cycles
    assert first.latencies_cycles == second.latencies_cycles
    assert first.bus_stats == second.bus_stats
    stats = first.bus_stats["sysbus"]
    assert stats["queued_grants"] > 0
    assert stats["stall_cycles"] > 0
    assert first.makespan_cycles > _rows.get(
        "contention_single", {"makespan": 0})["makespan"]
    _rows["contention_loaded"] = {
        "makespan": first.makespan_cycles,
        "queued_grants": stats["queued_grants"],
        "stall_cycles": stats["stall_cycles"],
        "utilization": stats["utilization"],
    }


# -- table + metrics --------------------------------------------------------

def test_render_traffic_scale(tables, metrics):
    table = Table(
        ["Instances", "Wall", "Events", "Events/s", "Makespan"],
        title="Traffic scale — one kernel event loop (MP3 SW, quantum sync)",
    )
    bench = {"quantum": QUANTUM, "frames": FRAMES}
    for n in SWEEP:
        row = _rows.get(n)
        if not row:
            continue
        ev_s = row["events"] / row["wall"] if row["wall"] else 0.0
        table.add_row(
            str(n),
            fmt_seconds(row["wall"]),
            str(row["events"]),
            "%.2fM" % (ev_s / 1e6),
            str(row["makespan"]),
        )
        bench["n%d_wall" % n] = row["wall"]
        bench["n%d_events" % n] = row["events"]
        bench["n%d_makespan" % n] = row["makespan"]
        bench["n%d_events_per_sec" % n] = ev_s
    for key in ("contention_single", "contention_loaded"):
        if key in _rows:
            for stat, value in _rows[key].items():
                bench["%s_%s" % (key, stat)] = value
    tables["traffic_scale"] = table.render() + (
        "\n(N lockstep instances of the 1-frame SW decode, quantum sync "
        "q=%d; every row is best-of-3.)" % QUANTUM
    )
    metrics["traffic_scale"] = bench
