"""explore(replay=...) — the sweep-level trace-replay fast path."""

import pytest

from repro import artifacts
from repro.explore import DesignPoint, explore
from repro.pum import microblaze
from repro.tlm import Design

PRODUCER = """
int buf[16];
int main(void) {
  int s = 0;
  for (int m = 0; m < 3; m++) {
    for (int i = 0; i < 20; i++) s += i * 3;
    send(1, buf, 6);
    recv(2, buf, 2);
  }
  return s;
}"""

CONSUMER = """
int buf[16];
int main(void) {
  int s = 0;
  for (int m = 0; m < 3; m++) {
    recv(1, buf, 6);
    for (int i = 0; i < 9; i++) s += i;
    send(2, buf, 2);
  }
  return s;
}"""


def _platform_point(name, wpc=1, arb=2, mhz=100.0, icache=8192):
    def build():
        design = Design(name)
        design.add_pe("cpu", microblaze(icache, 4096))
        design.add_pe("hw", microblaze(2048, 2048))
        design.add_bus("bus", words_per_cycle=wpc, arbitration_cycles=arb)
        design.add_channel(1, "req", "bus")
        design.add_channel(2, "rsp", "bus")
        design.add_process("prod", PRODUCER, "main", "cpu")
        design.add_process("cons", CONSUMER, "main", "hw")
        cpu = design.pes["cpu"]
        cpu.pum = cpu.pum.with_frequency(mhz)
        return design

    return DesignPoint(name, build)


def _platform_sweep():
    return [
        _platform_point("w%d a%d %gMHz" % (w, a, mhz), wpc=w, arb=a, mhz=mhz)
        for w in (1, 2, 4)
        for a in (1, 2)
        for mhz in (100.0, 125.0)
    ]


@pytest.fixture
def fresh_store():
    artifacts.reset_default_store()
    yield
    artifacts.reset_default_store()


class TestReplayAuto:
    def test_auto_matches_off_bit_for_bit(self, fresh_store):
        points = _platform_sweep()
        baseline = explore(points, replay="off")
        artifacts.reset_default_store()
        fast = explore(points, replay="auto")

        assert baseline.replay_stats is None
        stats = fast.replay_stats
        assert stats is not None
        assert stats["mode"] == "auto"
        assert stats["traces_captured"] == 1
        # one kernel run captures, one validates; the rest replay exactly
        assert stats["simulated"] == 2
        assert stats["validated"] == 1
        assert stats["replayed_exact"] == len(points) - 2
        assert stats["replayed_approx"] == 0
        assert stats["fallbacks"] == 0

        for off, auto in zip(baseline.results, fast.results):
            assert auto.ok
            assert auto.makespan_cycles == off.makespan_cycles
            assert auto.per_process_cycles == off.per_process_cycles
        assert ([r.point.name for r in fast.ranked()]
                == [r.point.name for r in baseline.ranked()])
        assert sum(1 for r in fast.results if r.replayed) \
            == stats["replayed_exact"]

    def test_second_sweep_reuses_stored_trace(self, fresh_store):
        points = _platform_sweep()
        first = explore(points, replay="auto")
        assert first.replay_stats["traces_captured"] == 1

        again = explore(points, replay="auto")
        stats = again.replay_stats
        assert stats["traces_captured"] == 0
        assert stats["traces_reused"] == 1
        # with the trace cached, only the validation point simulates
        assert stats["simulated"] == 1
        for a, b in zip(first.results, again.results):
            assert a.makespan_cycles == b.makespan_cycles

    def test_divergence_falls_back_to_simulation(self, fresh_store,
                                                 monkeypatch):
        import repro.simtrace as simtrace

        real_replay_many = simtrace.replay_many

        def corrupted(trace, designs, delay_scales=None, vectorize=True):
            outcomes, stats = real_replay_many(
                trace, designs, delay_scales=delay_scales,
                vectorize=vectorize,
            )
            for outcome in outcomes:
                outcome.makespan_cycles += 1  # poison every replay
            return outcomes, stats

        monkeypatch.setattr(simtrace, "replay_many", corrupted)

        points = _platform_sweep()
        result = explore(points, replay="auto")
        stats = result.replay_stats
        assert stats["fallbacks"] >= 1
        assert stats["replayed_exact"] == 0

        # every point still came back correct via the kernel paths
        monkeypatch.undo()
        artifacts.reset_default_store()
        baseline = explore(points, replay="off")
        for off, fell_back in zip(baseline.results, result.results):
            assert fell_back.ok
            assert fell_back.makespan_cycles == off.makespan_cycles

    def test_replay_plays_with_checkpoints(self, fresh_store, tmp_path):
        points = _platform_sweep()
        ckpt = str(tmp_path / "sweep.ckpt")
        first = explore(points, replay="auto", checkpoint=ckpt)
        assert all(r.ok for r in first.results)

        resumed = explore(points, replay="auto", checkpoint=ckpt)
        # everything was checkpointed, so nothing simulates or replays
        assert all(r.cached for r in resumed.results)
        assert resumed.replay_stats is None or \
            resumed.replay_stats["points"] == 0
        for a, b in zip(first.results, resumed.results):
            assert a.makespan_cycles == b.makespan_cycles

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            explore([_platform_point("p")], replay="always")


class TestReplayApprox:
    def test_approx_groups_across_cache_geometry(self, fresh_store):
        points = [
            _platform_point("i8k", icache=8192),
            _platform_point("i4k", icache=4096),
            _platform_point("i2k", icache=2048),
        ]
        baseline = explore(points, replay="off")
        artifacts.reset_default_store()
        fast = explore(points, replay="approx", replay_validate=0)

        stats = fast.replay_stats
        assert stats["mode"] == "approx"
        assert stats["traces_captured"] == 1
        assert stats["replayed_approx"] == 2
        for off, approx in zip(baseline.results, fast.results):
            assert approx.ok
            span = off.makespan_cycles
            assert abs(approx.makespan_cycles - span) / span < 0.05
