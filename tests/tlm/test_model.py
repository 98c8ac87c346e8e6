"""Unit tests for the executable TLM model internals."""

import pytest

from repro.pum import microblaze
from repro.simkernel import SimulationError
from repro.tlm import Design, generate_tlm
from repro.tlm.model import ChannelBinding, ProcessResult, TLMResult


class TestResultTypes:
    def test_makespan_rounds_to_cycles(self):
        result = TLMResult("d", True, 1234.9, 0.1, {}, cycle_ns=10.0)
        assert result.makespan_cycles == 123

    def test_total_computation_cycles(self):
        processes = {
            "a": ProcessResult("a", "cpu", 100, 2, None),
            "b": ProcessResult("b", "hw", 50, 2, 7),
        }
        result = TLMResult("d", True, 0.0, 0.0, processes, 10.0)
        assert result.total_computation_cycles() == 150
        assert result.process("b").return_value == 7

    def test_repr_compact(self):
        result = TLMResult("demo", True, 100.0, 0.5, {}, 10.0)
        assert "demo" in repr(result)

    def test_utilization(self):
        processes = {
            "busy": ProcessResult("busy", "cpu", 80, 0, None),
            "idle": ProcessResult("idle", "hw", 20, 0, None),
        }
        result = TLMResult("d", True, 1000.0, 0.0, processes, 10.0)
        util = result.utilization()
        assert util["busy"] == pytest.approx(0.8)
        assert util["idle"] == pytest.approx(0.2)

    def test_utilization_zero_makespan(self):
        processes = {"p": ProcessResult("p", "cpu", 0, 0, None)}
        result = TLMResult("d", False, 0.0, 0.0, processes, 10.0)
        assert result.utilization() == {"p": 0.0}

    def test_mp3_offload_shifts_utilization(self):
        from repro.apps.mp3 import Mp3Params, build_design
        from repro.tlm import generate_tlm

        small = Mp3Params(n_subbands=4, n_slots=4, n_phases=4, n_alias=2)
        design, _ = build_design("SW+4", small, n_frames=1, seed=3)
        util = generate_tlm(design, timed=True).run().utilization()
        # The CPU no longer saturates the platform; HW units do real work.
        assert util["decoder"] < 1.0
        assert any(
            value > 0.05 for name, value in util.items() if name != "decoder"
        )


class TestChannelBinding:
    def test_binding_routes_by_id(self):
        class FakeChannel:
            def __init__(self):
                self.sent = []

            def send_gen(self, process, values):
                self.sent.append(values)
                yield from ()

            def recv_gen(self, process, count):
                yield from ()
                return list(range(count))

        class FakeMap:
            def __init__(self, chan):
                self.chan = chan

            def get(self, chan_id):
                assert chan_id == 5
                return self.chan

        chan = FakeChannel()
        binding = ChannelBinding(FakeMap(chan))
        assert list(binding.send_gen(None, 5, [1, 2])) == []
        assert chan.sent == [[1, 2]]
        receiving = binding.recv_gen(None, 5, 3)
        with pytest.raises(StopIteration) as done:
            next(receiving)
        assert done.value.value == [0, 1, 2]


class TestFailureInjection:
    def _design_with(self, source):
        design = Design("fail")
        design.add_pe("cpu", microblaze())
        design.add_process("p", source, "main", "cpu")
        return design

    def test_runtime_error_in_process_surfaces(self):
        # Division by zero inside generated code must propagate as a
        # simulation error naming the process, not hang the kernel.
        model = generate_tlm(self._design_with("""
        int main(void) {
          int z = 0;
          return 1 / z;
        }"""), timed=False)
        with pytest.raises(SimulationError) as info:
            model.run()
        assert "p" in str(info.value)

    def test_failure_is_repeatable_not_sticky(self):
        model = generate_tlm(self._design_with("""
        int main(void) { int z = 0; return 1 / z; }"""), timed=False)
        for _ in range(2):
            with pytest.raises(SimulationError):
                model.run()

    def test_out_of_range_channel_id(self):
        model = generate_tlm(self._design_with("""
        int b[2];
        int main(void) { send(42, b, 2); return 0; }"""), timed=False)
        with pytest.raises(SimulationError):
            model.run()

    def test_model_reusable_after_until_cutoff(self):
        design = self._design_with("""
        int main(void) {
          int s = 0;
          for (int i = 0; i < 100; i++) s += i;
          return s;
        }""")
        model = generate_tlm(design, timed=True)
        full = model.run()
        cut = model.run(until=1.0)
        assert cut.end_time_ns <= 1.0
        again = model.run()
        assert again.makespan_cycles == full.makespan_cycles


class TestReferenceOracle:
    def test_sw4_block_matches_heap_oracle(self, monkeypatch):
        # The timed SW+4 decoder at block granularity (~196k events on five
        # processes) runs identically on the kernel and the heap oracle.
        from repro.apps.mp3 import Mp3Params, build_design

        from ..simkernel.reference_kernel import ReferenceKernel, counters

        design, _ = build_design("SW+4", Mp3Params(), n_frames=1, seed=3)
        model = generate_tlm(design, timed=True, granularity="block")
        outcomes = []
        for kernel_cls in (None, ReferenceKernel):
            if kernel_cls is not None:
                monkeypatch.setattr("repro.tlm.model.Kernel", kernel_cls)
            result = model.run()
            outcomes.append((
                result.end_time_ns,
                {name: (p.cycles, p.transactions, p.return_value)
                 for name, p in result.processes.items()},
                counters(result.kernel_stats),
            ))
        assert result.kernel_stats["scheduler"] == "heap"
        assert outcomes[0] == outcomes[1]
