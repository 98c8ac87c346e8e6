"""Dynamic bus contention: arbitration policies, counters and fast path.

Unit level: :class:`ArbitratedBus` grant order per policy, queue counters,
and the uncontended fast path's arithmetic identity with the plain bus.
Model level: policy-less designs keep their bit-exact legacy makespans,
arbitrated designs grant identically on the kernel and the heap oracle
at every granularity and stay deterministic under fault injection, and
simtrace recording refuses load-dependent arbitration (a recorded trace
would bake one grant order in).
"""

import pytest

from repro.apps.mp3 import Mp3Params, build_design
from repro.faults import ChannelFault, FaultScenario
from repro.pum import dct_hw, microblaze
from repro.simkernel import Bus, Kernel, SimulationError, TraceRecorder
from repro.tlm import (
    ArbitratedBus,
    ContentionError,
    Design,
    build_bus,
    collect_bus_stats,
    generate_tlm,
)
from repro.tlm.platform import BusDecl

from ..simkernel.reference_kernel import ReferenceKernel, counters

SMALL = Mp3Params(n_subbands=4, n_slots=4, n_phases=4, n_alias=2)


def _contenders(kernel, bus, names, n_words=8, order=None):
    """One generator master per name, all requesting the bus at t=0."""
    order = order if order is not None else []

    def master(name):
        def body(p):
            yield from bus.occupy_gen(p, n_words)
            order.append(name)
        return body

    for name in names:
        kernel.add_process(name, master(name))
    return order


class TestGrantPolicies:
    def test_unknown_policy_rejected(self):
        kernel = Kernel()
        with pytest.raises(ContentionError):
            ArbitratedBus(kernel, "b", policy="lottery")

    def test_fifo_grants_in_arrival_order(self):
        kernel = Kernel()
        bus = ArbitratedBus(kernel, "b", policy="fifo")
        order = _contenders(kernel, bus, ["m0", "m1", "m2", "m3"])
        kernel.run()
        assert order == ["m0", "m1", "m2", "m3"]

    def test_priority_grants_most_urgent_first(self):
        kernel = Kernel()
        bus = ArbitratedBus(kernel, "b", policy="priority",
                            priorities={"m1": 1, "m3": 2})
        order = _contenders(kernel, bus, ["m0", "m1", "m2", "m3"])
        kernel.run()
        # m0 wins the free bus at t=0; then priority 1, 2, then the
        # DEFAULT_PRIORITY master by arrival.
        assert order == ["m0", "m1", "m3", "m2"]

    def test_rr_cycles_over_master_names(self):
        kernel = Kernel()
        bus = ArbitratedBus(kernel, "b", policy="rr")

        def master(name, repeats):
            def body(p):
                for _ in range(repeats):
                    yield from bus.occupy_gen(p, 4)
                    order.append(name)
            return body

        order = []
        kernel.add_process("a", master("a", 3))
        kernel.add_process("b", master("b", 3))
        kernel.add_process("c", master("c", 3))
        kernel.run()
        # After "a" takes the free bus, round-robin alternates fairly
        # instead of letting one master monopolise.
        assert order == ["a", "b", "c"] * 3

    def test_counters_reflect_queueing(self):
        kernel = Kernel()
        bus = ArbitratedBus(kernel, "b", policy="fifo", cycle_ns=10.0)
        _contenders(kernel, bus, ["m0", "m1", "m2"], n_words=10)
        end = kernel.run()
        stats = bus.bus_stats()
        assert stats["policy"] == "fifo"
        assert stats["grants"] == 3
        assert stats["queued_grants"] == 2  # m1 and m2 waited
        assert stats["max_queue"] == 2
        # m1 waited one transfer, m2 two: 1*T + 2*T cycles of stall.
        transfer_cycles = int(bus.transfer_time(10) / bus.cycle_ns)
        assert stats["stall_cycles"] == 3 * transfer_cycles
        assert stats["busy_cycles"] == 3 * transfer_cycles
        assert stats["utilization"] == pytest.approx(
            3 * transfer_cycles * 10.0 / end)

    def test_uncontended_fast_path_matches_plain_bus(self):
        ends = {}
        for build in ("plain", "arbitrated"):
            kernel = Kernel()
            if build == "plain":
                bus = Bus(kernel, "b", cycle_ns=10.0, words_per_cycle=2,
                          arbitration_cycles=3)
            else:
                bus = ArbitratedBus(kernel, "b", cycle_ns=10.0,
                                    words_per_cycle=2, arbitration_cycles=3,
                                    policy="fifo")

            def body(p):
                for n_words in (1, 7, 32, 5):
                    yield from bus.occupy_gen(p, n_words)
                    yield 13.0

            kernel.add_process("solo", body)
            ends[build] = kernel.run()
        assert ends["plain"] == ends["arbitrated"]

    def test_one_wake_per_grant(self):
        """k queued masters cost O(k) activations, not the plain bus's
        O(k^2) retry herd."""
        k = 50
        kernel = Kernel()
        bus = ArbitratedBus(kernel, "b", policy="fifo")
        _contenders(kernel, bus, ["m%02d" % i for i in range(k)])
        kernel.run()
        # Each master: one start + one grant/finish activation (plus the
        # winner's single pass) — comfortably linear in k.
        assert kernel.kernel_stats()["activations"] <= 3 * k


class TestBusFactory:
    def test_policy_none_builds_plain_bus(self):
        kernel = Kernel()
        bus = build_bus(kernel, BusDecl("b0", words_per_cycle=2))
        assert type(bus) is Bus

    def test_policy_builds_arbitrated_bus(self):
        kernel = Kernel()
        decl = BusDecl("b0", policy="priority", priorities={"m": 1})
        bus = build_bus(kernel, decl)
        assert isinstance(bus, ArbitratedBus)
        assert bus.priorities == {"m": 1}

    def test_collect_skips_plain_buses(self):
        kernel = Kernel()
        buses = {
            "plain": build_bus(kernel, BusDecl("plain")),
            "arb": build_bus(kernel, BusDecl("arb", policy="rr")),
        }
        stats = collect_bus_stats(buses)
        assert set(stats) == {"arb"}
        assert stats["arb"]["policy"] == "rr"


def _two_pair_design(policy=None, priorities=None):
    """Two independent request/response pairs sharing one bus, so both
    drivers hit the bus at the same instants."""
    design = Design("contention-%s" % (policy or "static"))
    design.add_pe("cpu0", microblaze(8192, 4096))
    design.add_pe("cpu1", microblaze(8192, 4096))
    design.add_pe("hw0", dct_hw())
    design.add_pe("hw1", dct_hw())
    design.add_bus("bus0", policy=policy, priorities=priorities)
    for pair in (0, 1):
        req, rsp = 1 + 2 * pair, 2 + 2 * pair
        design.add_channel(req, "req%d" % pair, "bus0")
        design.add_channel(rsp, "rsp%d" % pair, "bus0")
        design.add_process("drv%d" % pair, """
        int b[64];
        int main(void) {
          for (int i = 0; i < 64; i++) b[i] = i;
          send(%d, b, 64);
          recv(%d, b, 64);
          return b[0];
        }""" % (req, rsp), "main", "cpu%d" % pair)
        design.add_process("srv%d" % pair, """
        int b[64];
        void main(void) {
          recv(%d, b, 64);
          send(%d, b, 64);
        }""" % (req, rsp), "main", "hw%d" % pair)
    return design


class TestModelContention:
    def test_policyless_design_reports_no_bus_stats(self):
        result = generate_tlm(_two_pair_design()).run()
        assert result.bus_stats == {}

    def test_arbitrated_design_reports_counters(self):
        result = generate_tlm(_two_pair_design(policy="fifo")).run()
        stats = result.bus_stats["bus0"]
        assert stats["policy"] == "fifo"
        assert stats["grants"] > 0
        assert stats["queued_grants"] > 0  # the pairs really collide
        assert stats["stall_cycles"] > 0

    @pytest.mark.parametrize("granularity", ["transaction", "block"])
    def test_deterministic_across_schedulers(self, granularity,
                                             monkeypatch):
        # The kernel and the heap oracle grant the bus identically.
        outcomes = []
        for kernel_cls in (Kernel, ReferenceKernel):
            monkeypatch.setattr("repro.tlm.model.Kernel", kernel_cls)
            model = generate_tlm(_two_pair_design(policy="fifo"),
                                 granularity=granularity)
            result = model.run()
            assert result.makespan_cycles > 0
            outcomes.append((
                result.makespan_cycles,
                sorted(result.bus_stats["bus0"].items()),
                counters(result.kernel_stats),
            ))
        assert outcomes[0] == outcomes[1]

    def test_priorities_change_outcome_not_makespan_validity(self):
        fifo = generate_tlm(_two_pair_design(policy="fifo")).run()
        prio = generate_tlm(_two_pair_design(
            policy="priority", priorities={"drv1": 1, "srv1": 1},
        )).run()
        # Same total bus work either way; only the grant order differs.
        assert (fifo.bus_stats["bus0"]["grants"]
                == prio.bus_stats["bus0"]["grants"])

    def test_contention_counters_under_fault_injection(self):
        """Satellite: fault-delayed channels still account contention, and
        the composition stays bit-deterministic."""
        # Delay both request channels so the critical path cannot absorb
        # the fault in the other pair's slack.
        slow = FaultScenario("slow-req", faults=[
            ChannelFault("delay", "req0", cycles=200),
            ChannelFault("delay", "req1", cycles=200),
        ])
        runs = []
        for _ in range(2):
            result = generate_tlm(_two_pair_design(policy="fifo")).run(
                faults=slow)
            assert result.fault_stats["total_events"] > 0
            runs.append((result.makespan_cycles,
                         tuple(sorted(result.bus_stats["bus0"].items()))))
        assert runs[0] == runs[1]
        clean = generate_tlm(_two_pair_design(policy="fifo")).run()
        assert runs[0][0] > clean.makespan_cycles

    def test_recording_rejects_contended_arbitration(self):
        """A simtrace of a *contended* arbitrated run would freeze one
        load-dependent grant order into the trace — the recording aborts
        at the first queued grant (uncontended runs record fine; see
        tests/simtrace)."""
        model = generate_tlm(_two_pair_design(policy="fifo"))
        with pytest.raises(SimulationError) as exc_info:
            model.run(record=TraceRecorder())
        assert "load-dependent" in str(exc_info.value)

    def test_recording_still_allowed_for_static_designs(self):
        result = generate_tlm(_two_pair_design()).run(record=TraceRecorder())
        assert result.makespan_cycles > 0


class TestMp3FastPath:
    def test_single_master_mp3_makespan_unchanged_by_arbiter(self):
        """The paper pipeline's SW+1 design is effectively uncontended per
        channel; attaching an arbiter must not move the makespan by a single
        cycle (the O(1) fast path's arithmetic is the plain bus's)."""
        makespans = set()
        for policy in (None, "fifo"):
            design, _ = build_design("SW+1", SMALL, n_frames=1, seed=3)
            for bus in design.buses.values():
                bus.policy = policy
            result = generate_tlm(design).run()
            makespans.add(result.makespan_cycles)
        assert len(makespans) == 1
