"""Unit tests for the TLM generator and executable model."""

import pytest

from repro.pum import dct_hw, microblaze
from repro.tlm import Design, generate_tlm
from repro.simkernel import DeadlockError

PING = """
int buf[4];
int main(void) {
  for (int r = 0; r < 5; r++) {
    for (int i = 0; i < 4; i++) buf[i] = r * 4 + i;
    send(1, buf, 4);
    recv(2, buf, 4);
  }
  return buf[0] + buf[3];
}
"""

PONG = """
int buf[4];
void main(void) {
  for (int r = 0; r < 5; r++) {
    recv(1, buf, 4);
    for (int i = 0; i < 4; i++) buf[i] = buf[i] + 100;
    send(2, buf, 4);
  }
}
"""


def ping_pong_design():
    design = Design("pingpong")
    design.add_pe("cpu", microblaze(8192, 4096))
    design.add_pe("hw", dct_hw())
    design.add_bus("bus0")
    design.add_channel(1, "fwd", "bus0")
    design.add_channel(2, "bwd", "bus0")
    design.add_process("ping", PING, "main", "cpu")
    design.add_process("pong", PONG, "main", "hw")
    return design


class TestGeneration:
    def test_functional_tlm_runs(self):
        result = generate_tlm(ping_pong_design(), timed=False).run()
        assert result.process("ping").return_value == 116 + 119

    def test_timed_tlm_same_result_with_time(self):
        result = generate_tlm(ping_pong_design(), timed=True).run()
        assert result.process("ping").return_value == 116 + 119
        assert result.makespan_cycles > 0
        assert result.process("ping").cycles > 0
        assert result.process("pong").cycles > 0

    def test_functional_tlm_accumulates_no_cycles(self):
        result = generate_tlm(ping_pong_design(), timed=False).run()
        assert result.process("ping").cycles == 0

    def test_timed_slower_than_functional_in_sim_time(self):
        func = generate_tlm(ping_pong_design(), timed=False).run()
        timed = generate_tlm(ping_pong_design(), timed=True).run()
        assert timed.end_time_ns > func.end_time_ns

    def test_report_fields(self):
        model = generate_tlm(ping_pong_design(), timed=True)
        report = model.report
        assert report.annotation_seconds > 0
        assert report.frontend_seconds > 0
        assert set(report.per_process) == {"ping", "pong"}
        assert report.per_process["ping"].n_blocks > 0
        assert report.total_seconds >= report.annotation_seconds

    def test_untimed_report_has_no_annotation(self):
        model = generate_tlm(ping_pong_design(), timed=False)
        assert model.report.annotation_seconds == 0.0
        assert model.report.per_process["ping"] is None

    def test_transaction_counts(self):
        result = generate_tlm(ping_pong_design(), timed=True).run()
        assert result.process("ping").transactions == 10
        assert result.process("pong").transactions == 10

    def test_rerun_is_repeatable(self):
        model = generate_tlm(ping_pong_design(), timed=True)
        first = model.run()
        second = model.run()
        assert first.makespan_cycles == second.makespan_cycles
        assert (first.process("ping").return_value
                == second.process("ping").return_value)

    def test_granularity_preserves_results(self):
        txn = generate_tlm(ping_pong_design(), timed=True,
                           granularity="transaction").run()
        blk = generate_tlm(ping_pong_design(), timed=True,
                           granularity="block").run()
        assert (txn.process("ping").return_value
                == blk.process("ping").return_value)
        assert txn.process("ping").cycles == blk.process("ping").cycles
        # Block granularity can only refine event interleaving, and here the
        # final makespans agree.
        assert blk.makespan_cycles == txn.makespan_cycles

    def test_mismatched_protocol_deadlocks(self):
        design = Design("broken")
        design.add_pe("cpu", microblaze())
        design.add_bus("bus0")
        design.add_channel(1, "c", "bus0")
        design.add_process("p", """
        int buf[2];
        int main(void) { recv(1, buf, 2); return 0; }
        """, "main", "cpu")
        model = generate_tlm(design, timed=False)
        with pytest.raises(DeadlockError):
            model.run()

    def test_bus_contention_extends_makespan(self):
        def design_with(arbitration):
            design = Design("arb%d" % arbitration)
            design.add_pe("cpu", microblaze(8192, 4096))
            design.add_pe("hw", dct_hw())
            design.add_bus("bus0", arbitration_cycles=arbitration)
            design.add_channel(1, "fwd", "bus0")
            design.add_channel(2, "bwd", "bus0")
            design.add_process("ping", PING, "main", "cpu")
            design.add_process("pong", PONG, "main", "hw")
            return design

        cheap = generate_tlm(design_with(0), timed=True).run()
        costly = generate_tlm(design_with(50), timed=True).run()
        assert costly.makespan_cycles > cheap.makespan_cycles


class TestGenerationReportTimers:
    def test_total_is_sum_of_disjoint_stage_timers(self):
        model = generate_tlm(ping_pong_design(), timed=True)
        report = model.report
        assert set(report.stage_seconds) == {
            "frontend", "annotate", "codegen",
        }
        # Each stage runs in its own perf_counter window, so the total is
        # exactly the sum — annotation is no longer folded into frontend.
        assert report.total_seconds == pytest.approx(
            sum(report.stage_seconds.values())
        )
        assert report.total_seconds == pytest.approx(
            report.frontend_seconds + report.annotation_seconds
            + report.codegen_seconds
        )
        assert all(s >= 0.0 for s in report.stage_seconds.values())

    def test_stage_counters_cover_every_process(self):
        model = generate_tlm(ping_pong_design(), timed=True)
        report = model.report
        for stage in ("frontend", "annotate", "codegen"):
            lookups = report.stage_hits[stage] + report.stage_misses[stage]
            assert lookups == len(model.design.processes)

    def test_summary_round_trips_plain_data(self):
        import json

        model = generate_tlm(ping_pong_design(), timed=True)
        summary = model.report.summary()
        decoded = json.loads(json.dumps(summary))
        assert decoded == summary
        assert decoded["total_seconds"] == pytest.approx(
            model.report.total_seconds
        )

    def test_merge_generation_summaries(self):
        from repro.tlm import merge_generation_summaries

        reports = [
            generate_tlm(ping_pong_design(), timed=True).report
            for _ in range(2)
        ]
        merged = merge_generation_summaries(
            [r.summary() for r in reports] + [None]
        )
        assert merged["points"] == 2
        assert merged["stage_hits"]["frontend"] == sum(
            r.stage_hits["frontend"] for r in reports
        )
        assert merged["total_seconds"] == pytest.approx(
            sum(r.total_seconds for r in reports)
        )


class TestRetainedMemory:
    """What one more decoder input keeps alive on a warm store: its IR
    entry, its data and its memoised source text, not a new parse tree,
    IR, annotation and module (a served ``edit`` op's growth)."""

    INPUTS = 8
    BOUND_BYTES = 150 * 1024

    def test_fresh_inputs_retain_little(self):
        import gc
        import tracemalloc

        from repro.apps.mp3 import Mp3Params, build_design
        from repro.artifacts import ArtifactStore

        store = ArtifactStore()

        def generate(seed):
            design, _ = build_design("SW+2", Mp3Params(), n_frames=1,
                                     seed=seed)
            generate_tlm(design, timed=True, store=store)

        for seed in range(4):
            generate(100 + seed)
        gc.collect()
        tracemalloc.start()
        try:
            for seed in range(4, 4 + self.INPUTS):
                generate(100 + seed)
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert grown / self.INPUTS < self.BOUND_BYTES
