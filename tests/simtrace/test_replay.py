"""Replay-engine correctness: scalar bit-identity, vectorized == scalar ==
kernel across rescaled platform grids, and conservative fallbacks."""

import itertools

import pytest

from repro.pum import microblaze
from repro.rtos import RTOSModel
from repro.tlm import Design, generate_tlm
from repro.simtrace import (
    SimTraceError,
    capture_tlm_trace,
    process_delay_totals,
    replay_many,
    replay_tlm,
)

PRODUCER = """
int buf[16];
int main(void) {
  int s = 0;
  for (int m = 0; m < %d; m++) {
    for (int i = 0; i < %d; i++) s += i * 3;
    send(1, buf, %d);
    recv(2, buf, 2);
  }
  return s;
}"""

CONSUMER = """
int buf[16];
int main(void) {
  int s = 0;
  for (int m = 0; m < %d; m++) {
    recv(1, buf, %d);
    for (int i = 0; i < 9; i++) s += i;
    send(2, buf, 2);
  }
  return s;
}"""


def _pipeline(n_msgs=3, payload=6, n_iters=20, wpc=1, arb=2,
              cpu_mhz=None, hw_mhz=None, icache=8192, dcache=4096):
    design = Design("rp-%d-%d-%d" % (n_msgs, payload, n_iters))
    design.add_pe("cpu", microblaze(icache, dcache))
    design.add_pe("hw", microblaze(2048, 2048))
    design.add_bus("bus", words_per_cycle=wpc, arbitration_cycles=arb)
    design.add_channel(1, "req", "bus")
    design.add_channel(2, "rsp", "bus")
    design.add_process("prod", PRODUCER % (n_msgs, n_iters, payload),
                       "main", "cpu")
    design.add_process("cons", CONSUMER % (n_msgs, payload),
                       "main", "hw")
    if cpu_mhz is not None:
        cpu = design.pes["cpu"]
        cpu.pum = cpu.pum.with_frequency(cpu_mhz)
    if hw_mhz is not None:
        hw = design.pes["hw"]
        hw.pum = hw.pum.with_frequency(hw_mhz)
    return design


def _simulate(design):
    return generate_tlm(design, timed=True).run()


class TestScalarReplay:
    def test_identity_replay_is_bit_identical(self):
        trace, base = capture_tlm_trace(_pipeline())
        outcome = replay_tlm(trace, _pipeline())
        assert outcome.makespan_cycles == base.makespan_cycles
        assert outcome.end_time_ns == base.end_time_ns
        assert outcome.per_process_cycles == {
            n: base.process(n).cycles for n in trace.processes
        }

    @pytest.mark.parametrize("wpc,arb,cpu_mhz", [
        (4, 1, None),       # wider, cheaper bus
        (1, 7, None),       # pricier arbitration
        (2, 2, 125.0),      # faster CPU clock
        (1, 2, 25.0),       # much slower CPU clock
        (8, 0, 250.0),      # free arbitration + wide bus + fast clock
    ])
    def test_rescaled_point_matches_kernel(self, wpc, arb, cpu_mhz):
        trace, _ = capture_tlm_trace(_pipeline())
        target = _pipeline(wpc=wpc, arb=arb, cpu_mhz=cpu_mhz)
        reference = _simulate(target)
        outcome = replay_tlm(trace, target)
        assert outcome.makespan_cycles == reference.makespan_cycles
        assert outcome.end_time_ns == reference.end_time_ns

    def test_rtos_design_replays_bit_identically(self):
        def rtos_design(cs, wpc):
            design = Design("rtos-rp")
            design.add_pe("cpu", microblaze(8192, 4096),
                          rtos=RTOSModel(context_switch_cycles=cs))
            design.add_pe("hw", microblaze(2048, 2048))
            design.add_bus("bus", words_per_cycle=wpc)
            design.add_channel(1, "req", "bus")
            design.add_channel(2, "rsp", "bus")
            design.add_process("prod", PRODUCER % (3, 15, 4), "main", "cpu")
            design.add_process("side", """
            int main(void) {
              int s = 0;
              for (int i = 0; i < 50; i++) s += i;
              return s;
            }""", "main", "cpu")
            design.add_process("cons", CONSUMER % (3, 4), "main", "hw")
            return design

        trace, _ = capture_tlm_trace(rtos_design(cs=120, wpc=1))
        target = rtos_design(cs=15, wpc=4)
        reference = _simulate(target)
        outcome = replay_tlm(trace, target)
        assert outcome.makespan_cycles == reference.makespan_cycles
        assert outcome.end_time_ns == reference.end_time_ns

    def test_approximate_tier_tracks_cache_change(self):
        source = _pipeline(icache=8192, dcache=4096)
        target = _pipeline(icache=2048, dcache=2048)
        trace, _ = capture_tlm_trace(source)
        totals = process_delay_totals(target)
        scales = {
            name: totals[name] / trace.delay_totals[name]
            for name in totals
        }
        outcome = replay_tlm(trace, target, delay_scales=scales)
        reference = _simulate(target)
        error = abs(outcome.makespan_cycles - reference.makespan_cycles)
        assert error / reference.makespan_cycles < 0.05

    def test_incompatible_design_rejected(self):
        trace, _ = capture_tlm_trace(_pipeline())
        moved = _pipeline()
        moved.processes["prod"].pe_name = "hw"
        with pytest.raises(SimTraceError):
            replay_tlm(trace, moved)

        renamed = Design("other")
        renamed.add_pe("cpu", microblaze())
        renamed.add_process("alien", "int main(void){return 0;}",
                            "main", "cpu")
        with pytest.raises(SimTraceError):
            replay_tlm(trace, renamed)


class TestVectorizedReplay:
    def test_grid_matches_kernel_everywhere(self):
        trace, _ = capture_tlm_trace(_pipeline())
        grid = [
            _pipeline(wpc=w, arb=a, cpu_mhz=mhz)
            for w, a, mhz in itertools.product(
                (1, 2, 4), (1, 2), (None, 125.0)
            )
        ]
        outcomes, stats = replay_many(trace, grid)
        assert stats["vectorized"] > 0
        for design, outcome in zip(grid, outcomes):
            reference = _simulate(design)
            assert outcome.makespan_cycles == reference.makespan_cycles
            assert outcome.end_time_ns == reference.end_time_ns

    def test_vectorized_agrees_with_scalar(self):
        trace, _ = capture_tlm_trace(_pipeline())
        grid = [_pipeline(wpc=w, arb=a)
                for w, a in itertools.product((1, 2, 4, 8), (0, 1, 3))]
        vectorized, stats = replay_many(trace, grid)
        scalar, _ = replay_many(trace, grid, vectorize=False)
        assert stats["vectorized"] + stats["scalar"] == len(grid)
        for vec, sca in zip(vectorized, scalar):
            assert vec.makespan_cycles == sca.makespan_cycles
            assert vec.end_time_ns == sca.end_time_ns
            assert vec.per_process_cycles == sca.per_process_cycles

    def test_request_order_inversion_falls_back_to_scalar(self):
        # Two producers race for one bus.  Slowing the first producer's PE
        # inverts the recorded request order, which the vectorized model
        # must flag — the point still comes back bit-identical via the
        # scalar engine.
        def racing(mhz_a=100.0, mhz_b=100.0):
            design = Design("race")
            design.add_pe("pa", microblaze(2048, 2048))
            design.add_pe("pb", microblaze(2048, 2048))
            design.add_pe("sink", microblaze(2048, 2048))
            design.add_bus("bus", words_per_cycle=1, arbitration_cycles=2)
            design.add_channel(1, "ca", "bus")
            design.add_channel(2, "cb", "bus")
            design.add_process("a", """
            int buf[8];
            int main(void) {
              int s = 0;
              for (int i = 0; i < 5; i++) s += i;
              send(1, buf, 8);
              return s;
            }""", "main", "pa")
            design.add_process("b", """
            int buf[8];
            int main(void) {
              int s = 0;
              for (int i = 0; i < 60; i++) s += i * 5;
              send(2, buf, 8);
              return s;
            }""", "main", "pb")
            design.add_process("c", """
            int buf[8];
            int main(void) {
              recv(1, buf, 8);
              recv(2, buf, 8);
              return 0;
            }""", "main", "sink")
            for pe_name, mhz in (("pa", mhz_a), ("pb", mhz_b)):
                pe = design.pes[pe_name]
                pe.pum = pe.pum.with_frequency(mhz)
            return design

        trace, _ = capture_tlm_trace(racing())
        # Lane 0 keeps the recorded ordering; lane 1 slows producer a
        # enough (20x) that b's request now lands first.
        grid = [racing(), racing(mhz_a=5.0)]
        outcomes, stats = replay_many(trace, grid)
        assert stats["scalar"] >= 1
        for design, outcome in zip(grid, outcomes):
            reference = _simulate(design)
            assert outcome.makespan_cycles == reference.makespan_cycles
            assert outcome.end_time_ns == reference.end_time_ns

    def test_rtos_points_never_vectorize(self):
        def shared(cs):
            design = Design("rtos-vec")
            design.add_pe("cpu", microblaze(4096, 4096),
                          rtos=RTOSModel(context_switch_cycles=cs))
            design.add_pe("hw", microblaze(2048, 2048))
            design.add_bus("bus")
            design.add_channel(1, "req", "bus")
            design.add_channel(2, "rsp", "bus")
            design.add_process("prod", PRODUCER % (2, 10, 4), "main", "cpu")
            design.add_process("mon", "int main(void){return 1;}",
                               "main", "cpu")
            design.add_process("cons", CONSUMER % (2, 4), "main", "hw")
            return design

        trace, _ = capture_tlm_trace(shared(100))
        outcomes, stats = replay_many(trace, [shared(100), shared(10)])
        assert stats["vectorized"] == 0
        assert stats["scalar"] == 2
        for design, outcome in zip([shared(100), shared(10)], outcomes):
            assert outcome.makespan_cycles == _simulate(design).makespan_cycles
