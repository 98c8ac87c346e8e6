"""The content-identity scheme: immutable PUMs with cached fingerprints,
composed replay signatures, stored delay totals and arithmetic delay
groups must name exactly the content they stand for."""

import copy
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.mp3 import VARIANTS, Mp3Params, build_design
from repro.artifacts import ArtifactStore
from repro.estimation import annotate_ir_program
from repro.pum import (
    PUMError,
    microblaze,
    pum_fingerprint,
    pum_from_dict,
    pum_to_dict,
    superscalar2,
)
from repro.search import SearchSpace, mp3_product_space
from repro.simtrace import process_delay_totals, replay_signature
from repro.tlm import Design, generate_tlm
from repro.tlm.generator import DELAYS_KIND, compile_process

SMALL = Mp3Params(n_subbands=4, n_slots=4, n_phases=4, n_alias=2)

#: The fields a fingerprint deliberately leaves out.
_NOT_FINGERPRINTED = ("frequency_mhz", "icache_size", "dcache_size")

BASE_DOC = pum_to_dict(microblaze(8192, 4096))

EDITS = (
    "unit_quantity", "mode_delay", "op_stages", "pipeline_width",
    "branch_penalty", "branch_miss_rate", "hit_rate", "name", "clock",
    "cache_sizes",
)


def _content(pum):
    doc = pum_to_dict(pum)
    for field in _NOT_FINGERPRINTED:
        del doc[field]
    return doc


def _pick(data, items):
    return items[data.draw(st.integers(0, len(items) - 1))]


def _apply(data, doc, edit):
    """One random in-range edit of a serialised PUM."""
    rate = st.floats(0.0, 1.0, allow_nan=False)
    if edit == "unit_quantity":
        _pick(data, doc["units"])["quantity"] = data.draw(st.integers(1, 4))
    elif edit == "mode_delay":
        modes = _pick(data, doc["units"])["modes"]
        modes[_pick(data, sorted(modes))] = data.draw(st.integers(1, 40))
    elif edit == "op_stages":
        n_stages = max(len(p["stages"]) for p in doc["pipelines"])
        mappings = doc["execution"]["op_mappings"]
        mapping = mappings[_pick(data, sorted(mappings))]
        mapping["demand"] = data.draw(st.integers(0, n_stages - 1))
        mapping["commit"] = data.draw(
            st.integers(mapping["demand"], n_stages - 1))
    elif edit == "pipeline_width":
        _pick(data, doc["pipelines"])["width"] = data.draw(
            st.sampled_from([None, 1, 2, 3]))
    elif edit == "branch_penalty":
        doc["branch"]["penalty"] = data.draw(st.integers(0, 6))
    elif edit == "branch_miss_rate":
        doc["branch"]["miss_rate"] = data.draw(rate)
    elif edit == "hit_rate":
        table = doc["memory"][_pick(data, ["icache", "dcache"])]
        table[_pick(data, sorted(table))][0] = data.draw(rate)
    elif edit == "name":
        doc["name"] = data.draw(st.sampled_from(["MicroBlaze", "MB-2", "x"]))
    elif edit == "clock":
        doc["frequency_mhz"] = data.draw(st.floats(1.0, 1000.0))
    else:
        doc["icache_size"] = int(_pick(data, sorted(doc["memory"]["icache"])))
        doc["dcache_size"] = int(_pick(data, sorted(doc["memory"]["dcache"])))


def _design(pum, name="id"):
    design = Design(name)
    design.add_pe("cpu", pum)
    design.add_process("p", """
    int main(void) {
      int s = 0;
      for (int i = 0; i < 40; i++) s += i * 3;
      return s;
    }""", "main", "cpu")
    return design


class TestPumFingerprint:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_changes_exactly_when_content_changes(self, data):
        doc = copy.deepcopy(BASE_DOC)
        edits = data.draw(st.lists(st.sampled_from(EDITS), min_size=1,
                                   max_size=3))
        for edit in edits:
            _apply(data, doc, edit)
        base, edited = pum_from_dict(BASE_DOC), pum_from_dict(doc)
        same_content = _content(base) == _content(edited)
        assert (pum_fingerprint(base) == pum_fingerprint(edited)) \
            == same_content

    @settings(max_examples=40, deadline=None)
    @given(mhz=st.floats(1.0, 1000.0),
           caches=st.sampled_from([(2048, 2048), (4096, 8192), (0, 0)]),
           computed_first=st.booleans())
    def test_derived_copies_keep_it(self, mhz, caches, computed_first):
        pum = microblaze(8192, 4096)
        expected = pum_fingerprint(microblaze(8192, 4096))
        if computed_first:
            assert pum_fingerprint(pum) == expected
        clocked = pum.with_frequency(mhz)
        resized = pum.with_caches(*caches)
        assert clocked.frequency_mhz == mhz and pum.frequency_mhz == 100.0
        assert (resized.icache_size, resized.dcache_size) == caches
        assert pum_fingerprint(clocked) == expected
        assert pum_fingerprint(resized) == expected
        assert pum_fingerprint(resized.with_frequency(mhz)) == expected


class TestImmutablePum:
    @pytest.mark.parametrize("field", sorted(vars(microblaze())) + ["extra"])
    def test_assignment_raises(self, field):
        pum = microblaze()
        with pytest.raises(PUMError, match="immutable"):
            setattr(pum, field, 1)
        with pytest.raises(PUMError, match="immutable"):
            delattr(pum, field)

    def test_variants_leave_the_parent_alone(self):
        pum = microblaze(8192, 4096)
        pum.with_frequency(50.0).with_caches(2048, 2048)
        assert pum_to_dict(pum) == pum_to_dict(microblaze(8192, 4096))


class TestReplaySignature:
    @settings(max_examples=20, deadline=None)
    @given(mhz=st.floats(1.0, 1000.0))
    def test_equal_across_clocks(self, mhz):
        pum = microblaze(8192, 4096)
        assert replay_signature(_design(pum)) == replay_signature(
            _design(pum.with_frequency(mhz)))

    def test_differs_across_cache_sizes_and_pums(self):
        signatures = {
            replay_signature(_design(microblaze(i, d)))
            for i, d in ((8192, 4096), (2048, 4096), (8192, 2048))
        }
        signatures.add(replay_signature(_design(superscalar2(8192, 4096))))
        assert len(signatures) == 4


class TestDelayGroups:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_same_partition_as_group_keys(self, data):
        n_axes = data.draw(st.integers(1, 5))
        sizes = data.draw(st.lists(st.integers(1, 4), min_size=n_axes,
                                   max_size=n_axes))
        axes = [("a%d" % pos, tuple(range(10 * pos, 10 * pos + size)))
                for pos, size in enumerate(sizes)]
        roles = data.draw(st.lists(
            st.sampled_from(["design", "freq", "width", "arb"]),
            min_size=n_axes, max_size=n_axes))
        analytic = {}
        for (axis, _), role in zip(axes, roles):
            if role != "design":
                analytic.setdefault(role, axis)  # one bus axis of each kind
        space = SearchSpace(
            "groups", axes, build=lambda meta: None,
            freq_axes=({analytic["freq"]: "cpu"} if "freq" in analytic
                       else None),
            bus_width_axis=analytic.get("width"),
            bus_arb_axis=analytic.get("arb"),
        )
        if data.draw(st.booleans()):
            n_shards = data.draw(st.integers(1, 4))
            indices = space.shard_indices(
                data.draw(st.integers(0, n_shards - 1)), n_shards)
        else:
            indices = data.draw(st.lists(
                st.integers(0, len(space) - 1), max_size=60))
        expected = {}
        for pos, index in enumerate(indices):
            expected.setdefault(space.delay_group_key(index), []).append(pos)
        assert space.delay_groups(indices) == list(expected.values())

    def test_mp3_space_groups_by_cache_configuration(self):
        space = mp3_product_space(
            SMALL, icache_sizes=(2048, 4096), dcache_sizes=(2048, 4096),
            bus_widths=(1, 2), bus_arbitrations=(1, 2),
            cpu_mhz=(50.0, 100.0),
        )
        groups = space.delay_groups(list(range(len(space))))
        assert len(groups) == 4
        assert sorted(map(len, groups)) == [8] * 4


class TestDelayTotals:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_equal_stamped_block_sums(self, variant):
        store = ArtifactStore()
        for icache, dcache in ((8192, 4096), (2048, 2048)):
            design, _ = build_design(variant, SMALL, n_frames=1, seed=3,
                                     icache_size=icache, dcache_size=dcache)
            expected = {}
            for name, decl in design.processes.items():
                ir_program = compile_process(decl)
                annotate_ir_program(ir_program,
                                    design.pes[decl.pe_name].pum)
                expected[name] = sum(
                    block.delay
                    for fn_name in ir_program.functions
                    for block in ir_program.function(fn_name).blocks
                )
            assert process_delay_totals(design, store=store) == expected
            generate_tlm(design, store=store)  # re-stamps the shared IR
            assert process_delay_totals(design, store=store) == expected

    def test_v1_disk_entries_are_stale_and_rebuilt(self, tmp_path):
        design, _ = build_design("SW+2", SMALL, n_frames=1, seed=3)
        expected = process_delay_totals(
            design, store=ArtifactStore(directory=str(tmp_path)))
        entries = sorted((tmp_path / DELAYS_KIND).iterdir())
        assert len(entries) == len(design.processes)
        for path in entries:  # rewrite as the v1 schema, without totals
            data = json.loads(path.read_text())
            data["kind_version"] = 1
            del data["value"]["total"]
            path.write_text(json.dumps(data))
        store = ArtifactStore(directory=str(tmp_path))
        assert process_delay_totals(design, store=store) == expected
        stats = store.stats(DELAYS_KIND)
        assert stats.stale == len(entries) and stats.corrupt == 0
        assert stats.stored == len(entries)
        warm = ArtifactStore(directory=str(tmp_path))
        assert process_delay_totals(design, store=warm) == expected
        assert warm.stats(DELAYS_KIND).hits == len(entries)
