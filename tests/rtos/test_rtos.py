"""Tests for the timed RTOS model extension."""

import pytest

from repro.pum import microblaze
from repro.rtos import CPUShare, RTOSModel
from repro.simkernel import Kernel
from repro.tlm import Design, generate_tlm

WORK = """
int out[1];
void main(void) {
  for (int r = 0; r < 3; r++) {
    int s = 0;
    for (int i = 0; i < 100; i++) s += i;
    out[0] = s;
    send(%d, out, 1);
  }
}
"""

SINK = """
int buf[1];
int total;
void main(void) {
  for (int r = 0; r < 6; r++) {
    recv(%d, buf, 1);
    total += buf[0];
  }
}
"""


class TestRTOSModel:
    def test_defaults(self):
        model = RTOSModel()
        assert model.policy == "fifo"
        assert model.context_switch_cycles >= 0

    def test_invalid_policy(self):
        with pytest.raises(ValueError):
            RTOSModel(policy="edf")

    def test_negative_cs_rejected(self):
        with pytest.raises(ValueError):
            RTOSModel(context_switch_cycles=-1)

    def test_priorities(self):
        model = RTOSModel(policy="priority", priorities={"a": 1})
        assert model.priority_of("a") == 1
        assert model.priority_of("zzz") > 1


class TestCPUShare:
    def test_serialises_two_processes(self):
        kernel = Kernel()
        share = CPUShare(kernel, "cpu", 10.0, RTOSModel(context_switch_cycles=0))
        finish = {}

        def runner(name):
            def body(process):
                yield from share.execute_gen(process, name, 100)
                finish[name] = kernel.now
            return body

        kernel.add_process("a", runner("a"))
        kernel.add_process("b", runner("b"))
        kernel.run()
        assert finish["a"] == 1000.0
        assert finish["b"] == 2000.0  # waited for a

    def test_context_switch_charged_on_change(self):
        kernel = Kernel()
        share = CPUShare(kernel, "cpu", 10.0,
                         RTOSModel(context_switch_cycles=50))

        def body(process):
            yield from share.execute_gen(process, "a", 10)
            # same process: no switch
            yield from share.execute_gen(process, "a", 10)

        kernel.add_process("a", body)
        kernel.run()
        assert share.n_context_switches == 0
        # First dispatch pays the switch-in cost once.
        assert share.busy_cycles == 50 + 10 + 10

    def test_zero_cycles_is_noop(self):
        kernel = Kernel()
        share = CPUShare(kernel, "cpu", 10.0, RTOSModel())

        def body(process):
            yield from share.execute_gen(process, "a", 0)

        kernel.add_process("a", body)
        kernel.run()
        assert share.busy_cycles == 0


class TestTimedTLMWithRTOS:
    def _design(self, cs_cycles):
        design = Design("rtos")
        design.add_pe(
            "cpu", microblaze(8192, 4096),
            rtos=RTOSModel(context_switch_cycles=cs_cycles),
        )
        design.add_bus("b")
        design.add_channel(1, "c1", "b")
        design.add_channel(2, "c2", "b")
        design.add_process("w1", WORK % 1, "main", "cpu")
        design.add_process("w2", WORK % 2, "main", "cpu")
        design.add_pe("io", microblaze(8192, 4096))
        design.add_process("sink", (
            """
            int buf[1];
            int total;
            void main(void) {
              for (int r = 0; r < 3; r++) {
                recv(1, buf, 1);
                total += buf[0];
                recv(2, buf, 1);
                total += buf[0];
              }
            }
            """
        ), "main", "io")
        return design

    def test_shared_cpu_serialises_computation(self):
        result = generate_tlm(self._design(0), timed=True).run()
        w1 = result.process("w1").cycles
        w2 = result.process("w2").cycles
        # Makespan reflects both workloads executing on one processor.
        assert result.makespan_cycles >= (w1 + w2) * 0.9

    def test_context_switch_cost_extends_makespan(self):
        cheap = generate_tlm(self._design(0), timed=True).run()
        pricey = generate_tlm(self._design(2000), timed=True).run()
        assert pricey.makespan_cycles > cheap.makespan_cycles

    def test_results_unaffected_by_rtos(self):
        a = generate_tlm(self._design(0), timed=True).run()
        b = generate_tlm(self._design(500), timed=True).run()
        assert (a.process("w1").cycles, a.process("w2").cycles) == (
            b.process("w1").cycles, b.process("w2").cycles,
        )
