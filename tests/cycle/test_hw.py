"""Unit tests for the clock-stepped custom-HW datapath model."""

import pytest

from repro.api import compile_cmini
from repro.cdfg.interp import InterpreterError, run_function
from repro.cycle.hw import HWUnit
from repro.estimation import annotate_ir_program, estimated_total_cycles
from repro.cdfg.interp import Interpreter
from repro.pum import dct_hw, filtercore_hw

SRC = """
float acc;
int work(int n) {
  for (int i = 0; i < n; i++) {
    acc += (float)i * 0.5;
  }
  return (int)acc;
}
"""


class TestHWExecution:
    def test_functional_result_matches_interpreter(self):
        ir = compile_cmini(SRC)
        expected = run_function(compile_cmini(SRC), "work", 20)
        unit = HWUnit("u", ir, "work", dct_hw(), args=(20,))
        assert unit.run() == expected

    def test_cycles_accumulate_per_block(self):
        ir = compile_cmini(SRC)
        unit = HWUnit("u", ir, "work", dct_hw(), args=(20,))
        unit.run()
        assert unit.cycles > 0
        assert unit.n_blocks_executed > 20  # loop body ran 20 times

    def test_cycles_scale_with_work(self):
        def cycles_for(n):
            unit = HWUnit("u", compile_cmini(SRC), "work", dct_hw(), args=(n,))
            unit.run()
            return unit.cycles

        assert cycles_for(100) > 4 * cycles_for(20)

    def test_cached_and_uncached_schedules_agree(self):
        cached = HWUnit("u", compile_cmini(SRC), "work", dct_hw(),
                        args=(25,), cache_schedules=True)
        uncached = HWUnit("u", compile_cmini(SRC), "work", dct_hw(),
                          args=(25,), cache_schedules=False)
        cached.run()
        uncached.run()
        assert cached.cycles == uncached.cycles

    def test_dynamic_cycles_equal_static_annotation(self):
        """The HW unit's dynamic total equals the static annotator's
        trace-weighted total — the property that makes Table-3 HW estimates
        exact."""
        ir = compile_cmini(SRC)
        pum = dct_hw()
        annotate_ir_program(ir, pum)
        interp = Interpreter(ir)
        interp.call("work", 33)
        static_total = estimated_total_cycles(ir, interp.block_counts)

        unit = HWUnit("u", compile_cmini(SRC), "work", pum, args=(33,))
        unit.run()
        assert unit.cycles == static_total

    def test_richer_datapath_is_faster(self):
        mac_heavy = """
        float out[16];
        int work(void) {
          for (int i = 0; i < 16; i++) {
            out[i] = (float)i * 0.5 + (float)(i + 1) * 0.25
                   + (float)(i + 2) * 0.125 + (float)(i + 3) * 0.0625;
          }
          return 0;
        }"""
        small = HWUnit("s", compile_cmini(mac_heavy), "work", dct_hw())
        big = HWUnit("b", compile_cmini(mac_heavy), "work", filtercore_hw())
        small.run()
        big.run()
        assert big.cycles < small.cycles  # 4 FPUs vs 1

    def test_comm_requires_binding(self):
        # Standalone, a communicating unit has no channels to talk to; as
        # a generator it suspends at the send for its driver to serve.
        src = "int b[2]; int work(void) { send(1, b, 2); return 0; }"
        unit = HWUnit("u", compile_cmini(src), "work", dct_hw())
        with pytest.raises(InterpreterError, match="no comm handler"):
            unit.run()
        program = HWUnit("u", compile_cmini(src), "work", dct_hw()).run_gen()
        assert next(program) == ("send", 1, [0, 0])

    def test_stats(self):
        unit = HWUnit("u", compile_cmini(SRC), "work", dct_hw(), args=(5,))
        unit.run()
        stats = unit.stats()
        assert stats["cycles"] == unit.cycles
        assert stats["blocks_executed"] == unit.n_blocks_executed
