"""Tests for the staged design-space search engine."""

import random
from types import SimpleNamespace

import numpy
import pytest
from hypothesis import given, settings, strategies as st

from repro import artifacts, search as search_module
from repro.apps.mp3 import Mp3Params
from repro.explore import (
    CheckpointError, DesignPoint, ExplorationCheckpoint, explore,
)
from repro.pum import microblaze
from repro.estimation.staticest import REFERENCE_CYCLE_NS
from repro.search import (
    SearchError, SearchSpace, as_search_space, merge_checkpoints,
    merge_shard_results, mp3_product_space, parse_shard, search,
    static_scores,
)
from repro.tlm import Design

SMALL = Mp3Params(n_subbands=4, n_slots=4, n_phases=4, n_alias=2)


def _loop_design(n_iters, name):
    def build():
        design = Design(name)
        design.add_pe("cpu", microblaze(8192, 4096))
        design.add_process("p", """
        int main(void) {
          int s = 0;
          for (int i = 0; i < %d; i++) s += i * 3;
          return s;
        }""" % n_iters, "main", "cpu")
        return design

    return build


def _loop_points(iters=(400, 50, 150, 250, 90, 320)):
    return [
        DesignPoint("loop-%03d" % n, _loop_design(n, "loop-%03d" % n),
                    area=1)
        for n in iters
    ]


def _small_space(cpu_mhz=(66.0, 100.0, 150.0, 200.0)):
    return mp3_product_space(
        SMALL, variants=("SW+2",), n_frames=1, seed=7,
        icache_sizes=(4096, 8192), dcache_sizes=(2048, 4096),
        bus_widths=(1, 2), bus_arbitrations=(1, 4),
        cpu_mhz=cpu_mhz,
    )


@pytest.fixture()
def fresh_store():
    artifacts.reset_default_store()
    yield artifacts.default_store()
    artifacts.reset_default_store()


class TestSearchSpace:
    def test_product_enumeration(self):
        space = SearchSpace("toy", [("a", (1, 2, 3)), ("b", (10, 20))],
                            build=lambda meta: None)
        assert len(space) == 6
        assert space.meta(0) == {"a": 1, "b": 10}
        assert space.meta(5) == {"a": 3, "b": 20}
        names = [space.point_name(i) for i in range(6)]
        assert len(set(names)) == 6
        assert names[0] == "toy[a=1,b=10]"

    def test_axis_values_and_groups(self):
        space = SearchSpace(
            "toy", [("cfg", ("x", "y")), ("mhz", (50.0, 100.0))],
            build=lambda meta: None, freq_axes={"mhz": "cpu"},
        )
        assert space.axis_values("mhz", [0, 1, 2, 3]) == [
            50.0, 100.0, 50.0, 100.0,
        ]
        groups = {space.delay_group_key(i) for i in range(4)}
        assert groups == {("x",), ("y",)}

    def test_neighbors_step_one_axis(self):
        space = SearchSpace(
            "toy", [("a", (1, 2, 3)), ("b", (10, 20))],
            build=lambda meta: None,
        )
        # index 0 = (a=1, b=10): neighbors are (a=2, b=10) and (a=1, b=20)
        assert space.neighbors(0) == [1, 2]
        # index 3 = (a=2, b=20): (a=1,b=20), (a=3,b=20), (a=2,b=10)
        assert space.neighbors(3) == [1, 2, 5]

    def test_shards_partition_deterministically(self):
        space = _small_space()
        shards = [space.shard_indices(i, 3) for i in range(3)]
        combined = sorted(i for shard in shards for i in shard)
        assert combined == list(range(len(space)))
        assert shards == [space.shard_indices(i, 3) for i in range(3)]

    def test_invalid_configuration_rejected(self):
        with pytest.raises(SearchError):
            SearchSpace("toy", [], build=lambda meta: None)
        with pytest.raises(SearchError):
            SearchSpace("toy", [("a", ())], build=lambda meta: None)
        with pytest.raises(SearchError):
            SearchSpace("toy", [("a", (1,))], build=lambda meta: None,
                        freq_axes={"missing": "cpu"})
        with pytest.raises(SearchError):
            _small_space().shard_indices(3, 3)

    def test_parse_shard(self):
        assert parse_shard("0/4") == (0, 4)
        assert parse_shard("3/4") == (3, 4)
        for bad in ("4/4", "x/4", "2", "-1/4"):
            with pytest.raises(SearchError):
                parse_shard(bad)


def _reference_static_scores(space, indices):
    """The static scorer as per-point Python loops: dict grouping by the
    mixed-radix design key, list axis values and one division per point."""
    keys = [0] * len(indices)
    for stride, size in space._design_radix:
        keys = [key + (index // stride) % size * stride
                for key, index in zip(keys, indices)]
    groups = {}
    for pos, key in enumerate(keys):
        groups.setdefault(key, []).append(pos)
    groups = list(groups.values())

    def axis_values(axis, sub):
        pos = [name for name, _ in space.axes].index(axis)
        stride, size = space._strides[pos], space._sizes[pos]
        return [space.axes[pos][1][(i // stride) % size] for i in sub]

    scores = [0.0] * len(indices)
    for positions in groups:
        sub = [indices[p] for p in positions]
        base_ns, freq_cycles, bus_hist, buses = search_module._group_model(
            space, sub[0], None)
        est = numpy.full(len(sub), base_ns, dtype=float)
        for axis, cycles in freq_cycles.items():
            mhz = numpy.asarray(axis_values(axis, sub), dtype=float)
            est += cycles * (1000.0 / mhz)
        for bus_name, hist in bus_hist.items():
            bus = buses[bus_name]
            if space.bus_width_axis is not None:
                width = numpy.asarray(axis_values(space.bus_width_axis, sub),
                                      dtype=numpy.int64)
            else:
                width = numpy.int64(bus.words_per_cycle)
            if space.bus_arb_axis is not None:
                arb = numpy.asarray(axis_values(space.bus_arb_axis, sub),
                                    dtype=numpy.int64)
            else:
                arb = numpy.int64(bus.arbitration_cycles)
            cycles = arb * sum(hist.values())
            for words, times in hist.items():
                cycles = cycles + times * ((words + width - 1) // width)
            est += bus.cycle_ns * cycles
        for p, value in zip(positions, est):
            scores[p] = float(value) / REFERENCE_CYCLE_NS
    return groups, scores


def _fake_group_model(space, rep_index, store):
    """A model drawn from few values per delay group, so scores tie."""
    rng = random.Random(repr(space.delay_group_key(rep_index)))
    freq = {axis: rng.choice((0, 120, 241)) for axis in space.freq_axes}
    hist = {rng.choice((1, 3, 16)): rng.choice((1, 2)) for _ in range(2)}
    bus = SimpleNamespace(words_per_cycle=rng.choice((1, 4)),
                          arbitration_cycles=rng.choice((0, 2)),
                          cycle_ns=rng.choice((10.0, 7.7)))
    return rng.choice((0.0, 3.3, 6.1)), freq, {"bus": hist}, {"bus": bus}


class TestVectorizedStaticStage:
    """Grouping, scores and the cut equal the per-point formulas."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_per_point_formulas(self, data):
        n_axes = data.draw(st.integers(1, 4))
        roles = data.draw(st.lists(
            st.sampled_from(["design", "freq", "width", "arb"]),
            min_size=n_axes, max_size=n_axes))
        pools = {"design": (1, 2, 3), "freq": (50.0, 66.0, 133.0),
                 "width": (1, 2, 4), "arb": (0, 1, 2)}
        axes, analytic = [], {}
        for pos, role in enumerate(roles):
            if role != "design" and role in analytic:
                role = "design"  # one analytic axis of each kind
            if role != "design":
                analytic[role] = "a%d" % pos
            # repeated values force score ties inside a group
            axes.append(("a%d" % pos, tuple(data.draw(st.lists(
                st.sampled_from(pools[role]), min_size=1, max_size=3)))))
        space = SearchSpace(
            "ties", axes, build=lambda meta: None,
            freq_axes=({analytic["freq"]: "cpu"} if "freq" in analytic
                       else None),
            bus_width_axis=analytic.get("width"),
            bus_arb_axis=analytic.get("arb"),
        )
        indices = data.draw(st.lists(
            st.integers(0, len(space) - 1), min_size=1, unique=True))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(search_module, "_group_model", _fake_group_model)
            groups, expected = _reference_static_scores(space, indices)
            scores, counters = static_scores(space, indices, store=object())
        assert space.delay_groups(indices) == groups
        assert counters == {"scored": len(indices),
                            "delay_groups": len(groups)}
        assert list(map(float.hex, scores)) == list(map(float.hex, expected))
        by_score = sorted(indices, key=lambda i: (expected[indices.index(i)],
                                                  i))
        for keep in range(1, len(indices) + 1):
            assert search_module._lowest(indices, scores, keep) == sorted(
                by_score[:keep])


class TestStaticScores:
    def test_ranking_matches_exhaustive(self, fresh_store):
        space = _small_space()
        scores, counters = static_scores(space, list(range(len(space))))
        assert counters["scored"] == len(space)
        assert counters["delay_groups"] == 4
        exhaustive = explore(space.points(), replay="auto")
        by_static = sorted(range(len(space)),
                           key=lambda i: (scores[i], i))
        by_exact = [r.index for r in exhaustive.ranked()]
        assert by_static == by_exact

    def test_scores_plain_point_lists(self, fresh_store):
        points = _loop_points()
        scores, counters = static_scores(
            as_search_space(points), list(range(len(points))),
        )
        assert counters["delay_groups"] == len(points)
        order = sorted(range(len(points)), key=lambda i: scores[i])
        exhaustive = explore(points)
        assert ([points[i].name for i in order]
                == [r.point.name for r in exhaustive.ranked()])


class TestSearch:
    def test_finds_exhaustive_optimum(self, fresh_store):
        space = _small_space()
        result = search(space, keep_top=8, rung_fraction=0.1)
        exhaustive = explore(space.points(), replay="auto")
        best, truth = result.best(), exhaustive.best()
        assert best.point.name == truth.point.name
        assert best.makespan_cycles == truth.makespan_cycles
        # Far fewer points reached a simulator than the space holds.
        assert result.report.simulated_points < len(space)
        assert len(result) < len(space)

    def test_seeded_spaces_contain_optimum(self, fresh_store):
        for seed in (7, 8, 9):
            space = mp3_product_space(
                SMALL, variants=("SW", "SW+2"), n_frames=1, seed=seed,
                icache_sizes=(4096, 8192), dcache_sizes=(4096,),
                bus_widths=(1, 4), bus_arbitrations=(2,),
                cpu_mhz=(80.0, 120.0),
            )
            result = search(space, keep_top=4, rung_fraction=0.25)
            exhaustive = explore(space.points(), replay="auto")
            assert (result.best().makespan_cycles
                    == exhaustive.best().makespan_cycles)

    def test_results_carry_space_indices(self, fresh_store):
        space = _small_space()
        result = search(space, keep_top=6, rung_fraction=0.1)
        for point_result in result.results:
            assert (space.point_name(point_result.index)
                    == point_result.point.name)

    def test_stage_selection(self, fresh_store):
        space = _small_space(cpu_mhz=(66.0, 200.0))
        no_static = search(space, stages="1", keep_top=4,
                           rung_fraction=0.2)
        names = [s.name for s in no_static.report.stages]
        assert names == ["approx-rung", "exact"]
        assert no_static.report.stage_named("approx-rung").entered == \
            len(space)
        exhaustive = search(space, stages="", keep_top=4)
        assert [s.name for s in exhaustive.report.stages] == ["exact"]
        assert len(exhaustive) == len(space)

    def test_report_shape(self, fresh_store):
        space = _small_space()
        result = search(space, keep_top=6, rung_fraction=0.1)
        report = result.report.as_dict()
        assert report["space_points"] == len(space)
        stage_names = [s["stage"] for s in report["stages"]]
        assert stage_names == ["static", "approx-rung", "exact"]
        static = report["stages"][0]
        assert static["entered"] == len(space)
        assert static["pruned"] > 0
        assert 0.0 < static["prune_rate"] < 1.0
        assert static["counters"]["delay_groups"] == 4
        assert "app-profile" in static["counters"]["artifacts"]
        exact = report["stages"][2]
        assert exact["counters"]["mode"] == "auto"

    def test_plain_point_lists(self, fresh_store):
        points = _loop_points()
        result = search(points, keep_top=2, rung_fraction=0.1, stages="0")
        exhaustive = explore(points)
        assert result.best().point.name == exhaustive.best().point.name
        assert (result.best().makespan_cycles
                == exhaustive.best().makespan_cycles)

    def test_refinement_recovers_pruned_neighbors(self, fresh_store):
        space = _small_space()
        base = search(space, keep_top=4, rung_fraction=0.05, stages="01")
        refined = search(space, keep_top=4, rung_fraction=0.05,
                         stages="012", budget=8)
        refine = refined.report.stage_named("refine")
        assert refine is not None
        assert refine.entered == 8
        assert 0 < refine.kept <= 8
        assert len(refined) == len(base) + refine.kept
        assert (refined.best().makespan_cycles
                <= base.best().makespan_cycles)

    def test_invalid_arguments(self, fresh_store):
        space = _small_space()
        with pytest.raises(SearchError):
            search(space, stages="03")
        with pytest.raises(SearchError):
            search(space, keep_top=0)
        with pytest.raises(SearchError):
            search(space, rung_fraction=0.0)


class TestSharding:
    def test_sharded_searches_cover_optimum(self, fresh_store, tmp_path):
        space = _small_space()
        paths = []
        for shard in range(2):
            path = str(tmp_path / ("shard%d.json" % shard))
            paths.append(path)
            search(space, keep_top=6, rung_fraction=0.1,
                   shard=(shard, 2), checkpoint=path)
        merged = merge_shard_results(space, paths)
        evaluated = [r for r in merged.results if r.ok]
        assert all(r.cached for r in evaluated)
        assert len(evaluated) >= 6
        exhaustive = explore(space.points(), replay="auto")
        assert (merged.best().makespan_cycles
                == exhaustive.best().makespan_cycles)

    def test_merge_unions_disjoint_and_overlapping(self, tmp_path):
        points = _loop_points()
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        explore(points[:4], checkpoint=a)    # 0..3
        explore(points[2:], checkpoint=b)    # 2..5 (overlap on 2, 3)
        merged = merge_shard_results(points, [a, b])
        assert len(merged) == len(points)
        assert all(r.ok and r.cached for r in merged.results)
        # Zero re-evaluations: a further explore over the union restores
        # every point from the merged checkpoint.
        out = str(tmp_path / "merged.json")
        merge_checkpoints([a, b], output=out)
        rerun = explore(points, checkpoint=out)
        assert all(r.cached for r in rerun.results)
        assert ([r.makespan_cycles for r in rerun.results]
                == [r.makespan_cycles for r in merged.results])

    def test_merge_flags_missing_points(self, tmp_path):
        points = _loop_points()
        a = str(tmp_path / "a.json")
        explore(points[:2], checkpoint=a)
        merged = merge_shard_results(points, [a])
        assert len([r for r in merged.results if r.ok]) == 2
        missing = [r for r in merged.results if not r.ok]
        assert len(missing) == len(points) - 2
        assert all("shard" in r.error for r in missing)

    def test_merge_rejects_disagreeing_shards(self, tmp_path):
        points = _loop_points()[:2]
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        explore(points, checkpoint=a)
        forged = ExplorationCheckpoint(b)
        forged.record(points[0].name, 12345, {"p": 12345}, 0.0)
        with pytest.raises(CheckpointError, match="disagree"):
            merge_checkpoints([a, b])

    def test_merge_rejects_granularity_mismatch(self, tmp_path):
        points = _loop_points()[:2]
        a = str(tmp_path / "a.json")
        explore(points, checkpoint=a)
        with pytest.raises(CheckpointError):
            merge_checkpoints([a], granularity="statement")
