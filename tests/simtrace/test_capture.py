"""Recording-hook transparency: a recorded simulation is observably
identical to an unrecorded one, across granularities and PUMs."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.pum import microblaze, superscalar2
from repro.pum.library import dct_hw
from repro.simkernel import OP_RECV, OP_SEND, OP_WAIT, TraceRecorder
from repro.simkernel.kernel import SimulationError
from repro.tlm import Design, generate_tlm
from repro.simtrace import capture_tlm_trace

PRESETS = {
    "microblaze": microblaze,
    "superscalar2": superscalar2,
    "dct_hw": dct_hw,
}


def _pipeline_design(preset, n_msgs, payload, n_iters):
    """Producer → consumer over one shared bus, with private computation on
    both sides — exercises waits, sends, receives and bus contention."""
    design = Design("cap-%s-%d-%d-%d" % (preset, n_msgs, payload, n_iters))
    design.add_pe("cpu", PRESETS[preset]())
    design.add_pe("hw", microblaze(2048, 2048))
    design.add_bus("bus", words_per_cycle=2, arbitration_cycles=2)
    design.add_channel(1, "req", "bus")
    design.add_channel(2, "rsp", "bus")
    design.add_process("prod", """
    int buf[16];
    int main(void) {
      int s = 0;
      for (int m = 0; m < %d; m++) {
        for (int i = 0; i < %d; i++) s += i * 3;
        send(1, buf, %d);
        recv(2, buf, 2);
      }
      return s;
    }""" % (n_msgs, n_iters, payload), "main", "cpu")
    design.add_process("cons", """
    int buf[16];
    int main(void) {
      int s = 0;
      for (int m = 0; m < %d; m++) {
        recv(1, buf, %d);
        for (int i = 0; i < 17; i++) s += i;
        send(2, buf, 2);
      }
      return s;
    }""" % (n_msgs, payload), "main", "hw")
    return design


class TestRecordingTransparency:
    @settings(max_examples=20, deadline=None)
    @given(
        preset=st.sampled_from(sorted(PRESETS)),
        granularity=st.sampled_from(["transaction", "block", "quantum"]),
        n_msgs=st.integers(min_value=1, max_value=4),
        payload=st.integers(min_value=1, max_value=16),
        n_iters=st.integers(min_value=0, max_value=40),
    )
    @example(preset="microblaze", granularity="transaction", n_msgs=1,
             payload=1, n_iters=0)
    @example(preset="superscalar2", granularity="block", n_msgs=4,
             payload=16, n_iters=40)
    @example(preset="dct_hw", granularity="quantum", n_msgs=2, payload=8,
             n_iters=13)
    def test_recording_is_bit_transparent(self, preset, granularity, n_msgs,
                                          payload, n_iters):
        design = _pipeline_design(preset, n_msgs, payload, n_iters)
        model = generate_tlm(design, timed=True, granularity=granularity)
        plain = model.run()
        recorded = model.run(record=TraceRecorder())
        assert recorded.makespan_cycles == plain.makespan_cycles
        assert recorded.end_time_ns == plain.end_time_ns
        assert recorded.kernel_stats == plain.kernel_stats
        assert {n: p.cycles for n, p in recorded.processes.items()} == {
            n: p.cycles for n, p in plain.processes.items()
        }
        assert {n: p.transactions for n, p in recorded.processes.items()} == {
            n: p.transactions for n, p in plain.processes.items()
        }


class TestRecorder:
    def test_op_stream_shape(self):
        design = _pipeline_design("microblaze", 2, 4, 10)
        recorder = TraceRecorder()
        generate_tlm(design, timed=True).run(record=recorder)
        assert set(recorder.ops) == {"prod", "cons"}
        seqs = [seq for ops in recorder.ops.values()
                for seq, _, _, _ in ops]
        assert sorted(seqs) == list(range(len(seqs)))  # global total order
        prod_ops = [op for _, op, _, _ in recorder.ops["prod"]]
        assert prod_ops.count(OP_SEND) == 2
        assert prod_ops.count(OP_RECV) == 2
        assert OP_WAIT in prod_ops
        sends = [(a, b) for _, op, a, b in recorder.ops["prod"]
                 if op == OP_SEND]
        assert sends == [(1, 4), (1, 4)]  # channel id, payload words

    def test_wait_cycles_match_process_totals(self):
        # Every accumulated delay reaches the kernel through a recorded
        # sync, so the op stream's wait sum equals the process total.
        design = _pipeline_design("microblaze", 3, 2, 25)
        trace, result = capture_tlm_trace(design)
        for name, proc_trace in trace.processes.items():
            assert proc_trace.wait_cycles() == result.process(name).cycles

    def test_recording_rejects_fault_injection(self):
        from repro.faults import FaultScenario

        design = _pipeline_design("microblaze", 1, 1, 1)
        model = generate_tlm(design, timed=True)
        with pytest.raises(SimulationError):
            model.run(faults=FaultScenario(), record=TraceRecorder())


class TestCaptureEntryPoint:
    def test_trace_stored_under_signature(self):
        from repro import artifacts
        from repro.simtrace import TRACE_KIND, replay_signature

        artifacts.reset_default_store()
        try:
            design = _pipeline_design("microblaze", 1, 2, 5)
            trace, _ = capture_tlm_trace(design)
            store = artifacts.default_store()
            assert trace.signature == replay_signature(design)
            assert store.get(TRACE_KIND, trace.signature) is trace
        finally:
            artifacts.reset_default_store()

    def test_signature_ignores_replay_axes(self):
        from repro.simtrace import replay_signature

        base = _pipeline_design("microblaze", 1, 2, 5)
        tweaked = _pipeline_design("microblaze", 1, 2, 5)
        tweaked.buses["bus"].words_per_cycle = 4
        tweaked.buses["bus"].arbitration_cycles = 1
        cpu = tweaked.pes["cpu"]
        cpu.pum = cpu.pum.with_frequency(250.0)
        assert replay_signature(base) == replay_signature(tweaked)
        other_code = _pipeline_design("microblaze", 1, 2, 6)
        assert replay_signature(base) != replay_signature(other_code)
        other_pum = _pipeline_design("superscalar2", 1, 2, 5)
        assert replay_signature(base) != replay_signature(other_pum)

    def test_approx_signature_ignores_pums(self):
        from repro.simtrace import approx_signature

        a = _pipeline_design("microblaze", 1, 2, 5)
        b = _pipeline_design("superscalar2", 1, 2, 5)
        assert approx_signature(a) == approx_signature(b)

    def test_disk_round_trip(self, tmp_path):
        from repro.artifacts import ArtifactStore
        from repro.simtrace import TRACE_KIND, SimTrace

        design = _pipeline_design("microblaze", 2, 3, 7)
        store = ArtifactStore(directory=str(tmp_path))
        trace, _ = capture_tlm_trace(design, store=store)
        reloaded = ArtifactStore(directory=str(tmp_path)).get(
            TRACE_KIND, trace.signature
        )
        assert isinstance(reloaded, SimTrace)
        assert reloaded.to_dict() == trace.to_dict()


class TestArbitratedCapture:
    """Recording an *uncontended* arbitrated design — previously refused
    outright — now succeeds and logs the per-bus grant streams."""

    def _arbitrated_mp3(self):
        from repro.apps.mp3 import Mp3Params, build_design

        design, _ = build_design(
            "SW+1",
            Mp3Params(n_subbands=4, n_slots=4, n_phases=4, n_alias=2),
            n_frames=1, seed=3,
        )
        for bus in design.buses.values():
            bus.policy = "fifo"
        return design

    def test_uncontended_arbitrated_design_records(self, tmp_path):
        """The SW+1 pipeline is effectively uncontended (see
        tests/tlm/test_contention.py::TestMp3FastPath), so every grant is a
        fast-path grant and the recording goes through."""
        from repro.artifacts import ArtifactStore

        store = ArtifactStore(directory=str(tmp_path))
        trace, result = capture_tlm_trace(self._arbitrated_mp3(), store=store)
        assert result.makespan_cycles > 0
        assert trace.grants  # the armed capture logged grant streams
        for bus_name, stream in trace.grants.items():
            assert stream  # (seq, master, n_words, when_ns) tuples
            seqs = [g[0] for g in stream]
            assert seqs == sorted(seqs)
            assert all(g[2] > 0 for g in stream)

    def test_recorded_arbitrated_trace_replays_bit_identically(self,
                                                               tmp_path):
        from repro.artifacts import ArtifactStore
        from repro.simtrace import replay_tlm

        store = ArtifactStore(directory=str(tmp_path))
        design = self._arbitrated_mp3()
        trace, result = capture_tlm_trace(design, store=store)
        outcome = replay_tlm(trace, design)
        assert outcome.makespan_cycles == result.makespan_cycles
        assert outcome.end_time_ns == result.end_time_ns

    def test_grants_survive_serialization(self, tmp_path):
        from repro.artifacts import ArtifactStore
        from repro.simtrace import SimTrace

        store = ArtifactStore(directory=str(tmp_path))
        trace, _ = capture_tlm_trace(self._arbitrated_mp3(), store=store)
        clone = SimTrace.from_dict(trace.to_dict())
        assert clone.grants == trace.grants

    def test_contended_capture_still_refused(self):
        """Contention makes the grant order load-dependent; the capture
        aborts at the first queued grant rather than freeze one order in."""
        design = Design("contended-capture")
        design.add_bus("bus", policy="fifo")
        for pair in (0, 1):
            design.add_pe("cpu%d" % pair, microblaze(8192, 4096))
            design.add_pe("hw%d" % pair, microblaze(2048, 2048))
            design.add_channel(1 + pair, "req%d" % pair, "bus")
            design.add_process("prod%d" % pair, """
            int b[64];
            int main(void) {
              for (int m = 0; m < 4; m++) send(%d, b, 64);
              return 0;
            }""" % (1 + pair), "main", "cpu%d" % pair)
            design.add_process("cons%d" % pair, """
            int b[64];
            void main(void) {
              for (int m = 0; m < 4; m++) recv(%d, b, 64);
            }""" % (1 + pair), "main", "hw%d" % pair)
        with pytest.raises(SimulationError) as exc_info:
            capture_tlm_trace(design)
        assert "load-dependent" in str(exc_info.value)
