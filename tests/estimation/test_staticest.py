"""Tests for the simulation-free static estimator (search stage 0)."""

import hashlib
import json
import time

import pytest

from repro import artifacts
from repro.apps.mp3 import Mp3Params
from repro.apps.mp3.designs import build_design
from repro.estimation import (
    StaticEstimateError,
    app_profile_key,
    process_comp_cycles,
    profile_design,
    static_estimate,
)
from repro.estimation.staticest import PROFILE_KIND
from repro.pum import dct_hw, microblaze
from repro.tlm import Design, generate_tlm

SMALL = Mp3Params(n_subbands=4, n_slots=4, n_phases=4, n_alias=2)


def _single_process_design(n_iters=80, name="loop"):
    design = Design(name)
    design.add_pe("cpu", microblaze(8192, 4096))
    design.add_process("p", """
    int main(void) {
      int s = 0;
      for (int i = 0; i < %d; i++) s += i * 3;
      return s;
    }""" % n_iters, "main", "cpu")
    return design


@pytest.fixture()
def fresh_store():
    artifacts.reset_default_store()
    yield artifacts.default_store()
    artifacts.reset_default_store()


class TestProfile:
    def test_profiles_single_process(self, fresh_store):
        profile = profile_design(_single_process_design())
        assert set(profile.counts) == {"p"}
        assert profile.total_blocks("p") > 80
        assert profile.sends["p"] == []

    def test_profiles_communicating_processes(self, fresh_store):
        design, _ = build_design("SW+2", SMALL, n_frames=1, seed=7)
        profile = profile_design(design)
        assert set(profile.counts) == {"decoder", "p_filter_l", "p_imdct_l"}
        # The decoder drives both HW servers over request channels.
        assert profile.sends["decoder"]
        assert profile.recvs["decoder"]
        assert all(times > 0 for _, _, times in profile.sends["decoder"])

    def test_profile_cached_in_store(self, fresh_store):
        design, _ = build_design("SW+2", SMALL, n_frames=1, seed=7)
        profile_design(design)
        stored = fresh_store.stats(PROFILE_KIND).stored
        again = profile_design(design)
        assert fresh_store.stats(PROFILE_KIND).stored == stored
        assert fresh_store.stats(PROFILE_KIND).hits >= 1
        assert again.counts

    def test_profile_key_ignores_platform(self, fresh_store):
        a, _ = build_design("SW+2", SMALL, n_frames=1, seed=7,
                            icache_size=2048, dcache_size=2048)
        b, _ = build_design("SW+2", SMALL, n_frames=1, seed=7,
                            icache_size=16384, dcache_size=8192)
        b.pes["cpu"].pum = b.pes["cpu"].pum.with_frequency(250.0)
        assert app_profile_key(a) == app_profile_key(b)
        c, _ = build_design("SW+2", SMALL, n_frames=1, seed=8)
        assert app_profile_key(a) != app_profile_key(c)

    def test_profile_roundtrips_through_disk_codec(self, fresh_store):
        from repro.estimation.staticest import AppProfile

        design, _ = build_design("SW+2", SMALL, n_frames=1, seed=7)
        profile = profile_design(design)
        clone = AppProfile.from_dict(profile.to_dict())
        assert clone.counts == profile.counts
        assert clone.sends == profile.sends
        assert clone.recvs == profile.recvs

    def test_starved_process_raises(self, fresh_store):
        design = Design("starved")
        design.add_pe("cpu", microblaze(8192, 4096))
        design.add_bus("bus")
        design.add_channel(1, "never", "bus")
        design.add_process("p", """
        int main(void) {
          int v[1];
          recv(1, v, 1);
          return v[0];
        }""", "main", "cpu")
        with pytest.raises(StaticEstimateError, match="starved") as info:
            profile_design(design)
        assert "p (recv(1, 1))" in str(info.value)

    def test_failing_process_named_at_once(self, fresh_store):
        # ``sw`` fails before its first send; ``acc`` starves as a
        # consequence.  The profiler names the failing process, not the
        # starved one, and raises without waiting for anything.
        design = Design("victim")
        design.add_pe("cpu", microblaze(8192, 4096))
        design.add_pe("hw", dct_hw())
        design.add_bus("bus")
        design.add_channel(1, "req", "bus")
        design.add_process("sw", """
        int main(void) {
          int v[4];
          int i = 9;
          v[i] = 1;
          send(1, v, 4);
          return 0;
        }""", "main", "cpu")
        design.add_process("acc", """
        int main(void) {
          int buf[4];
          recv(1, buf, 4);
          return buf[0];
        }""", "main", "hw")
        start = time.perf_counter()
        with pytest.raises(StaticEstimateError) as info:
            profile_design(design)
        assert time.perf_counter() - start < 5.0
        message = str(info.value)
        assert "profiling process 'sw' failed: InterpreterError" in message
        assert "acc" not in message and "starved" not in message

    #: Profiles captured with the thread-per-process profiler this one
    #: replaced: total executed blocks per process, a digest of the
    #: per-block counts, and the aggregated sends.
    PROFILE_GOLDENS = {
        "SW": ("5d65b53bd1bf5eec", {"decoder": 13705}, {"decoder": []}),
        "SW+1": ("c58e87978827edb6",
                 {"decoder": 11099, "p_filter_l": 2615},
                 {"decoder": [(10, 16, 2)], "p_filter_l": [(11, 16, 2)]}),
        "SW+2": ("ed1908bb3af9b6b6",
                 {"decoder": 9809, "p_filter_l": 2615, "p_imdct_l": 1299},
                 {"decoder": [(10, 16, 2), (14, 16, 2)],
                  "p_filter_l": [(11, 16, 2)], "p_imdct_l": [(15, 16, 2)]}),
        "SW+4": ("4c37e8b1f1a03cec",
                 {"decoder": 5913, "p_filter_l": 2615, "p_filter_r": 2615,
                  "p_imdct_l": 1299, "p_imdct_r": 1299},
                 {"decoder": [(10, 16, 2), (12, 16, 2), (14, 16, 2),
                              (16, 16, 2)],
                  "p_filter_l": [(11, 16, 2)], "p_filter_r": [(13, 16, 2)],
                  "p_imdct_l": [(15, 16, 2)], "p_imdct_r": [(17, 16, 2)]}),
    }

    @pytest.mark.parametrize("variant", sorted(PROFILE_GOLDENS))
    def test_profile_matches_goldens(self, fresh_store, variant):
        digest, blocks, sends = self.PROFILE_GOLDENS[variant]
        design, _ = build_design(variant, SMALL, n_frames=1, seed=7)
        profile = profile_design(design)
        counts = json.dumps(profile.to_dict()["counts"], sort_keys=True)
        assert hashlib.sha256(counts.encode()).hexdigest()[:16] == digest
        assert {name: profile.total_blocks(name)
                for name in profile.counts} == blocks
        assert profile.sends == sends
        # Every word sent is received by someone.
        sent = sorted(t for per in profile.sends.values() for t in per)
        received = sorted(t for per in profile.recvs.values() for t in per)
        assert sent == received


class TestCompCycles:
    def test_matches_timed_tlm_per_process(self, fresh_store):
        design, _ = build_design("SW+2", SMALL, n_frames=1, seed=7)
        comp = process_comp_cycles(design)
        result = generate_tlm(design).run()
        assert comp == {
            name: proc.cycles for name, proc in result.processes.items()
        }

    def test_tracks_cache_configuration(self, fresh_store):
        small, _ = build_design("SW", SMALL, n_frames=1, seed=7,
                                icache_size=2048, dcache_size=2048)
        big, _ = build_design("SW", SMALL, n_frames=1, seed=7,
                              icache_size=16384, dcache_size=8192)
        assert (process_comp_cycles(small)["decoder"]
                > process_comp_cycles(big)["decoder"])


class TestStaticEstimate:
    def test_exact_on_single_process_designs(self, fresh_store):
        design = _single_process_design()
        estimate = static_estimate(design)
        real = generate_tlm(design).run().makespan_cycles
        assert round(estimate) == real

    def test_close_on_communicating_designs(self, fresh_store):
        design, _ = build_design("SW+2", SMALL, n_frames=1, seed=7)
        estimate = static_estimate(design)
        real = generate_tlm(design).run().makespan_cycles
        assert abs(estimate - real) / real < 0.01

    def test_frequency_scales_estimate(self, fresh_store):
        base, _ = build_design("SW", SMALL, n_frames=1, seed=7)
        fast, _ = build_design("SW", SMALL, n_frames=1, seed=7)
        fast.pes["cpu"].pum = fast.pes["cpu"].pum.with_frequency(200.0)
        slow_est = static_estimate(base)
        fast_est = static_estimate(fast)
        assert fast_est == pytest.approx(slow_est / 2.0)

    def test_bus_parameters_change_estimate(self, fresh_store):
        narrow, _ = build_design("SW+2", SMALL, n_frames=1, seed=7)
        wide, _ = build_design("SW+2", SMALL, n_frames=1, seed=7)
        for bus in wide.buses.values():
            bus.words_per_cycle = 8
            bus.arbitration_cycles = 0
        assert static_estimate(wide) < static_estimate(narrow)


class TestFrequencyIndependentDelays:
    def test_annotation_shared_across_clock_sweep(self, fresh_store):
        from repro.tlm.generator import DELAYS_KIND

        base, _ = build_design("SW", SMALL, n_frames=1, seed=7)
        generate_tlm(base)
        stored = fresh_store.stats(DELAYS_KIND).stored
        retuned, _ = build_design("SW", SMALL, n_frames=1, seed=7)
        retuned.pes["cpu"].pum = retuned.pes["cpu"].pum.with_frequency(
            333.0)
        generate_tlm(retuned)
        # A pure clock change re-annotates nothing: delays are cycle
        # counts and the delays key excludes the frequency.
        assert fresh_store.stats(DELAYS_KIND).stored == stored
