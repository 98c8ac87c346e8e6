"""Structural schedule memoization — equivalence, LRU behaviour, disk form,
PUM fingerprints and the environment opt-out."""

import pytest

from repro.api import compile_cmini
from repro.apps import jpeg, kernels
from repro.apps.mp3 import Mp3Params, build_sources
from repro.cdfg.dfg import build_block_dfg
from repro.estimation import schedcache
from repro.estimation.annotator import annotate_ir_program
from repro.estimation.scheduler import OptimisticScheduler
from repro.estimation.schedcache import (
    CacheStats,
    ScheduleCache,
    dfg_structural_hash,
)
from repro.pum import (
    dct_hw,
    filtercore_hw,
    imdct_hw,
    microblaze,
    pum_fingerprint,
    pum_from_dict,
    pum_from_json,
    pum_to_dict,
    pum_to_json,
    superscalar2,
)

SMALL_MP3 = Mp3Params(n_subbands=4, n_slots=4, n_phases=4, n_alias=2)

PUM_PRESETS = {
    "microblaze": microblaze,
    "dct-hw": dct_hw,
    "filtercore-hw": filtercore_hw,
    "imdct-hw": imdct_hw,
    "superscalar2": superscalar2,
}


def _app_programs():
    """name -> IR program, covering the MP3 decoder, JPEG and the kernels."""
    mp3_cpu, mp3_hw, _frames = build_sources("SW+2", SMALL_MP3, n_frames=1)
    sources = {
        "mp3": mp3_cpu,
        "jpeg": jpeg.cpu_source(n_blocks=1),
        "kernels-dct": kernels.dct_source(n_blocks=1),
        "kernels-fir": kernels.fir_source(n_taps=4, n_samples=16),
        "kernels-sort": kernels.sort_source(n_items=16),
    }
    sources.update(
        ("mp3-hw-%s" % unit, src) for unit, src in mp3_hw.items()
    )
    return {name: compile_cmini(src) for name, src in sources.items()}


APP_PROGRAMS = _app_programs()


def _all_delays(ir_program, pum, cache):
    annotate_ir_program(ir_program, pum, cache=cache)
    return {
        (name, block.label): block.delay
        for name in ir_program.functions
        for block in ir_program.function(name).blocks
    }


class TestCachedDelaysBitIdentical:
    @pytest.mark.parametrize("preset", sorted(PUM_PRESETS))
    @pytest.mark.parametrize("app", sorted(APP_PROGRAMS))
    def test_cached_equals_uncached(self, preset, app):
        pum = PUM_PRESETS[preset]()
        ir_program = APP_PROGRAMS[app]
        uncached = _all_delays(ir_program, pum, cache=False)
        shared = ScheduleCache()
        cold = _all_delays(ir_program, pum, cache=shared)
        warm = _all_delays(ir_program, pum, cache=shared)
        assert uncached == cold == warm
        assert shared.stats.stored > 0

    def test_mp3_reannotation_records_hits(self):
        pum = microblaze()
        ir_program = APP_PROGRAMS["mp3"]
        shared = ScheduleCache()
        first = _all_delays(ir_program, pum, cache=shared)
        hits_before = shared.stats.hits
        second = _all_delays(ir_program, pum, cache=shared)
        assert first == second
        assert shared.stats.hits > hits_before

    def test_schedule_reused_across_cache_sizes(self):
        """The fingerprint excludes I/D sizes: an 8k/4k schedule serves a
        2k/2k re-annotation (only Algorithm-2 terms differ)."""
        ir_program = APP_PROGRAMS["kernels-fir"]
        shared = ScheduleCache()
        _all_delays(ir_program, microblaze(8192, 4096), cache=shared)
        misses_before = shared.stats.misses
        _all_delays(ir_program, microblaze(2048, 2048), cache=shared)
        assert shared.stats.misses == misses_before


class TestStructuralHash:
    def test_renamed_variables_share_a_hash(self):
        a = compile_cmini("int f(int x, int y) { return x * 3 + y; }")
        b = compile_cmini("int f(int p, int q) { return p * 3 + q; }")
        hash_a = [
            dfg_structural_hash(build_block_dfg(blk))
            for blk in a.function("f").blocks
        ]
        hash_b = [
            dfg_structural_hash(build_block_dfg(blk))
            for blk in b.function("f").blocks
        ]
        assert hash_a == hash_b

    def test_different_structure_differs(self):
        a = compile_cmini("int f(int x) { return x * 3; }")
        b = compile_cmini("int f(int x) { return x + 3; }")
        hash_a = dfg_structural_hash(
            build_block_dfg(a.function("f").blocks[0])
        )
        hash_b = dfg_structural_hash(
            build_block_dfg(b.function("f").blocks[0])
        )
        assert hash_a != hash_b

    def test_hash_is_stable_across_rebuilds(self):
        src = "int f(int x) { int s = 0; for (int i = 0; i < x; i++) s += i; return s; }"
        hashes = set()
        for _ in range(2):
            ir_program = compile_cmini(src)
            for blk in ir_program.function("f").blocks:
                hashes.add(dfg_structural_hash(build_block_dfg(blk)))
        ir_again = compile_cmini(src)
        for blk in ir_again.function("f").blocks:
            assert dfg_structural_hash(build_block_dfg(blk)) in hashes


class TestPumFingerprint:
    def test_distinct_across_presets(self):
        fingerprints = {pum_fingerprint(f()) for f in PUM_PRESETS.values()}
        assert len(fingerprints) == len(PUM_PRESETS)

    def test_stable_across_json_round_trip(self):
        pum = microblaze()
        clone = pum_from_json(pum_to_json(pum))
        assert pum_fingerprint(pum) == pum_fingerprint(clone)

    def test_insensitive_to_cache_sizes(self):
        assert pum_fingerprint(microblaze(8192, 4096)) == pum_fingerprint(
            microblaze(2048, 2048)
        )

    def test_sensitive_to_datapath_changes(self):
        base = microblaze()
        wider = microblaze()
        wider.units[0].quantity += 1
        assert pum_fingerprint(base) != pum_fingerprint(wider)

    def test_clock_only_change_adds_no_misses(self):
        """Algorithms 1 and 2 never read the clock, so re-annotating at a
        new frequency must be served entirely from the schedule memo."""
        cpu_src, _, _ = build_sources("SW", SMALL_MP3, n_frames=1)
        cache = ScheduleCache()
        pum = microblaze(8192, 4096)
        annotate_ir_program(compile_cmini(cpu_src), pum, cache=cache)
        misses = cache.stats.misses
        assert misses > 0
        rebuilt_at_50mhz = pum_from_dict(
            dict(pum_to_dict(pum), frequency_mhz=50.0))
        for variant in (rebuilt_at_50mhz, pum.with_frequency(75.0),
                        pum.with_caches(2048, 2048).with_frequency(133.0)):
            annotate_ir_program(compile_cmini(cpu_src), variant, cache=cache)
            assert cache.stats.misses == misses


class TestScheduleCacheLRU:
    def test_stats_and_lru_eviction(self):
        cache = ScheduleCache(max_entries=2)
        cache.put("fp", "a", 3, (0,), (2,))
        cache.put("fp", "b", 4, (0,), (3,))
        assert cache.get("fp", "a") == (3, (0,), (2,))  # refresh 'a'
        cache.put("fp", "c", 5, (0,), (4,))  # evicts 'b', the LRU entry
        assert cache.get("fp", "b") is None
        assert cache.get("fp", "a") is not None
        assert cache.get("fp", "c") is not None
        stats = cache.stats
        assert (stats.hits, stats.misses) == (3, 1)
        assert stats.stored == 3 and stats.evicted == 1
        assert len(cache) == 2

    def test_put_same_key_is_idempotent(self):
        cache = ScheduleCache()
        cache.put("fp", "a", 3, (0,), (2,))
        cache.put("fp", "a", 3, (0,), (2,))
        assert len(cache) == 1 and cache.stats.stored == 1

    def test_stats_reset_and_dict(self):
        stats = CacheStats()
        stats.hits = 3
        stats.misses = 1
        assert stats.hit_rate == 0.75
        assert stats.as_dict()["hits"] == 3
        stats.reset()
        assert stats.lookups == 0 and stats.hit_rate == 0.0


class TestDiskCache:
    def test_round_trip_serves_hits(self, tmp_path):
        path = str(tmp_path / "sched.json")
        ir_program = APP_PROGRAMS["kernels-dct"]
        pum = dct_hw()
        original = ScheduleCache()
        baseline = _all_delays(ir_program, pum, cache=original)
        original.save(path)

        warmed = ScheduleCache(path=path)
        assert len(warmed) == len(original)
        replay = _all_delays(ir_program, pum, cache=warmed)
        assert replay == baseline
        assert warmed.stats.misses == 0 and warmed.stats.hits > 0

    def test_corrupt_file_is_ignored(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        cache = ScheduleCache(path=str(path))
        assert len(cache) == 0
        path.write_text('{"version": 999, "entries": {"k": [1, [], []]}}')
        assert cache.load(str(path)) == 0

    def test_save_without_path_raises(self):
        with pytest.raises(ValueError):
            ScheduleCache().save()

    def test_save_is_atomic(self, tmp_path, monkeypatch):
        import json
        import os as os_module

        path = str(tmp_path / "sched.json")
        cache = ScheduleCache()
        cache.put("fp", "hash", 3, [0, 1], [1, 2])
        cache.save(path)
        before = open(path).read()

        # A crash mid-write must leave the previous complete file intact:
        # fail the final rename and confirm the target is untouched and no
        # temp litter remains readable as the cache.
        def exploding_replace(src, dst):
            raise OSError("simulated crash during replace")

        monkeypatch.setattr("repro.ioutil.os.replace", exploding_replace)
        cache.put("fp2", "hash2", 4, [0], [1])
        with pytest.raises(OSError):
            cache.save(path)
        assert open(path).read() == before
        assert json.loads(before)["entries"]  # still complete JSON
        leftovers = [n for n in os_module.listdir(str(tmp_path))
                     if n.startswith("sched.json.tmp")]
        assert leftovers == []  # temp file cleaned up on failure


class TestDefaultCache:
    def test_env_opt_out(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCHED_CACHE", "0")
        schedcache.reset_default_cache()
        try:
            assert schedcache.default_cache() is None
            scheduler = OptimisticScheduler(microblaze())
            assert scheduler.cache is None and scheduler.cache_stats is None
        finally:
            schedcache.reset_default_cache()

    def test_enabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCHED_CACHE", raising=False)
        schedcache.reset_default_cache()
        try:
            cache = schedcache.default_cache()
            assert isinstance(cache, ScheduleCache)
            scheduler = OptimisticScheduler(microblaze())
            assert scheduler.cache is cache
        finally:
            schedcache.reset_default_cache()

    def test_backing_file(self, tmp_path, monkeypatch):
        path = str(tmp_path / "default.json")
        monkeypatch.setenv("REPRO_SCHED_CACHE_FILE", path)
        schedcache.reset_default_cache()
        try:
            cache = schedcache.default_cache()
            cache.put("fp", "a", 3, (0,), (2,))
            assert schedcache.save_default_cache() == path
            schedcache.reset_default_cache()
            assert schedcache.default_cache().get("fp", "a") is not None
        finally:
            schedcache.reset_default_cache()
