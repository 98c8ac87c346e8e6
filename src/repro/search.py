"""Staged design-space search: prune -> promote -> refine over huge spaces.

:func:`repro.explore.explore` evaluates every point it is given; PRs 1-6
made each point cheap, but for the 10^4-10^6-point spaces the ROADMAP
targets, *enumeration itself* is the remaining asymptotic cost.  This
module layers a staged search over ``explore`` that touches almost no
point with a simulator:

Stage 0 — **prune** (static).  Every point is scored with the
simulation-free estimator of :mod:`repro.estimation.staticest`: profiled
block counts (captured once per application) dotted with the cached
Algorithm-1/2 delay vectors, plus an analytic bus-transfer term.  Points
sharing their design axes (application, cache geometry) form one *delay
group*; each group profiles/annotates once and the per-point frequency
and bus terms vectorize with numpy across the whole group.  Cost: O(N)
arithmetic, zero kernel runs.

Stage 1 — **promote** (successive halving).  The static survivors run
through the approx replay tier (one recorded simulation per application,
delay-rescaled replays for everything else), and the finalists of that
rung get exact timed-TLM evaluations via ``explore(replay="auto")`` —
riding the PR 6 trace grouping and the PR 5 warm artifact store.  The
containment knobs: at least ``keep_top`` points survive every cut, and
each cut keeps at least a ``rung_fraction`` of its input.

Stage 2 — **refine** (Pareto neighborhood expansion).  Up to ``budget``
additional points neighbouring the current Pareto front (one step along
any axis: cache geometry, bus width/arbitration, clock, variant) are
exact-evaluated and merged, repeatedly, until the budget is spent or the
front's neighborhood is exhausted.

Sharding: a space partitions deterministically by point content-hash
(:meth:`SearchSpace.shard_indices`); shards run as independent processes
writing the existing atomic exploration checkpoints, and
:func:`merge_shard_results` unions shard checkpoints into one
:class:`~repro.explore.ExplorationResult` with zero re-evaluations.

Only stage-1 finalists and stage-2 candidates ever reach a simulator:
sweep cost drops from O(N) kernel runs to O(N) numpy scoring plus
O(survivors) simulations.  CLI: ``python -m repro search``.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager

from .artifacts import content_key, default_store
from .errors import InputError
from .estimation.staticest import (
    PROFILE_KIND, REFERENCE_CYCLE_NS, process_comp_cycles, profile_design,
)
from .explore import (
    CheckpointError, DesignPoint, ExplorationCheckpoint, ExplorationResult,
    PointResult, explore,
)

__all__ = [
    "SearchError",
    "SearchReport",
    "SearchResult",
    "SearchSpace",
    "StageStats",
    "as_search_space",
    "static_scores",
    "merge_checkpoints",
    "merge_shard_results",
    "mp3_product_space",
    "parse_shard",
    "search",
]


class SearchError(InputError):
    """Invalid search configuration or space."""

    code = "search"


class SearchSpace:
    """A cartesian product of named axes, lazily materialised as points.

    Args:
        name: the space's name (part of every point's shard hash).
        axes: ordered ``(axis_name, values)`` pairs; the last axis varies
            fastest in the point enumeration.
        build: ``build(meta) -> Design`` where ``meta`` maps every axis
            name to one of its values.
        freq_axes: ``{axis_name: pe_name}`` — axes that only scale that
            PE's clock (MHz values).  The static scorer handles them
            analytically instead of rebuilding designs.
        bus_width_axis / bus_arb_axis: axes that only set every bus's
            ``words_per_cycle`` / ``arbitration_cycles`` — also analytic.
        area: optional ``area(meta) -> int`` cost proxy for Pareto views.

    Axes *not* declared frequency- or bus-only are **design axes**
    (application variant, cache geometry, ...): points sharing all design
    axis values form one *delay group* that the static scorer profiles and
    annotates exactly once, however many points the group contains.
    """

    def __init__(self, name, axes, build, freq_axes=None,
                 bus_width_axis=None, bus_arb_axis=None, area=None):
        self.name = name
        self.axes = [(axis, tuple(values)) for axis, values in axes]
        if not self.axes:
            raise SearchError("a search space needs at least one axis")
        names = [axis for axis, _ in self.axes]
        if len(set(names)) != len(names):
            raise SearchError("duplicate axis names: %r" % (names,))
        for axis, values in self.axes:
            if not values:
                raise SearchError("axis %r has no values" % axis)
        self._build = build
        self.freq_axes = dict(freq_axes or {})
        self.bus_width_axis = bus_width_axis
        self.bus_arb_axis = bus_arb_axis
        self._area = area
        for axis in list(self.freq_axes) + [bus_width_axis, bus_arb_axis]:
            if axis is not None and axis not in names:
                raise SearchError("unknown axis %r" % axis)
        self._sizes = [len(values) for _, values in self.axes]
        self._strides = []
        stride = 1
        for size in reversed(self._sizes):
            self._strides.append(stride)
            stride *= size
        self._strides.reverse()
        self._n = stride
        self._design_axes = [
            axis for axis, _ in self.axes
            if axis not in self.freq_axes
            and axis not in (bus_width_axis, bus_arb_axis)
        ]
        self._design_radix = [
            (stride, size)
            for (axis, _), stride, size in zip(self.axes, self._strides,
                                               self._sizes)
            if axis in self._design_axes
        ]
        self._points = None
        self._hashes = None

    def __len__(self):
        return self._n

    def _coords(self, index):
        return tuple(
            (index // stride) % size
            for stride, size in zip(self._strides, self._sizes)
        )

    def _index_of(self, coords):
        return sum(c * s for c, s in zip(coords, self._strides))

    def meta(self, index):
        """``{axis: value}`` of point ``index``."""
        return {
            axis: values[coord]
            for (axis, values), coord in zip(self.axes, self._coords(index))
        }

    def point_name(self, index):
        meta = self.meta(index)
        return "%s[%s]" % (self.name, ",".join(
            "%s=%s" % (axis, _fmt_value(meta[axis]))
            for axis, _ in self.axes
        ))

    def build(self, meta):
        """A fresh design for one axis-value combination."""
        return self._build(meta)

    def area(self, index):
        return self._area(self.meta(index)) if self._area else 0

    def point(self, index):
        meta = self.meta(index)
        return DesignPoint(
            self.point_name(index),
            lambda meta=meta: self._build(meta),
            area=self._area(meta) if self._area else 0,
            meta=meta,
        )

    def points(self, indices=None):
        """:class:`DesignPoint` list for ``indices`` (default: the full
        space, cached)."""
        if indices is None:
            if self._points is None:
                self._points = [self.point(i) for i in range(self._n)]
            return list(self._points)
        return [self.point(i) for i in indices]

    def delay_group_key(self, index):
        """Hashable design-axis values of ``index`` (the stage-0 grouping
        key: one profile + one annotation per distinct key)."""
        meta = self.meta(index)
        return tuple(meta[axis] for axis in self._design_axes)

    def delay_groups(self, indices):
        """Positions in ``indices`` grouped by delay group, groups in order
        of first appearance — the partition :meth:`delay_group_key`
        induces, computed by mixed-radix arithmetic: a point's group is its
        index with every non-design coordinate zeroed."""
        import numpy

        index = numpy.asarray(indices, dtype=numpy.int64)
        keys = numpy.zeros(len(index), dtype=numpy.int64)
        for stride, size in self._design_radix:
            keys += index // stride % size * stride
        return _group_positions(keys)

    def freq_axis_of(self, pe_name):
        """The frequency axis driving ``pe_name``'s clock (or ``None``)."""
        for axis, pe in self.freq_axes.items():
            if pe == pe_name:
                return axis
        return None

    def axis_values(self, axis, indices):
        """The ``axis`` value of each index in ``indices`` (a list)."""
        values, coords = self._axis_coords(axis, indices)
        return [values[c] for c in coords.tolist()]

    def _axis_array(self, axis, indices, dtype):
        """:meth:`axis_values` as a numpy array of ``dtype``."""
        import numpy

        values, coords = self._axis_coords(axis, indices)
        return numpy.asarray(values, dtype=dtype)[coords]

    def _axis_coords(self, axis, indices):
        """``axis``'s values and the coordinate (an index into them) of
        each index in ``indices``, as a numpy array."""
        import numpy

        for pos, (name, values) in enumerate(self.axes):
            if name == axis:
                return values, (numpy.asarray(indices, dtype=numpy.int64)
                                // self._strides[pos] % self._sizes[pos])
        raise SearchError("unknown axis %r" % axis)

    def neighbors(self, index):
        """Indices one step (+/-1 along exactly one axis) from ``index``."""
        coords = self._coords(index)
        out = []
        for pos, size in enumerate(self._sizes):
            for step in (-1, 1):
                coord = coords[pos] + step
                if 0 <= coord < size:
                    moved = list(coords)
                    moved[pos] = coord
                    out.append(self._index_of(moved))
        return sorted(out)

    def point_hash(self, index):
        """Deterministic content-hash of one point (the shard key)."""
        if self._hashes is None:
            self._hashes = {}
        cached = self._hashes.get(index)
        if cached is None:
            cached = int(content_key(self.name, self.point_name(index)), 16)
            self._hashes[index] = cached
        return cached

    def shard_indices(self, shard, n_shards):
        """The deterministic content-hash partition: every point lands in
        exactly one of ``n_shards`` shards, independent of enumeration
        order, axis changes elsewhere, or which process asks."""
        if not (isinstance(shard, int) and isinstance(n_shards, int)
                and 0 <= shard < n_shards):
            raise SearchError(
                "invalid shard %r/%r (need 0 <= i < N)" % (shard, n_shards)
            )
        return [i for i in range(self._n)
                if self.point_hash(i) % n_shards == shard]

    def __repr__(self):
        return "SearchSpace(%r, %d axes, %d points)" % (
            self.name, len(self.axes), self._n,
        )


def _fmt_value(value):
    if isinstance(value, float):
        return "%g" % value
    return str(value)


def _group_positions(keys):
    """Positions of equal ``keys``, grouped in order of first appearance."""
    import numpy

    keys = numpy.asarray(keys, dtype=numpy.int64)
    if not len(keys):
        return []
    _, first, group = numpy.unique(keys, return_index=True,
                                   return_inverse=True)
    rank = numpy.empty(len(first), dtype=numpy.int64)
    rank[numpy.argsort(first)] = numpy.arange(len(first))
    group = rank[group]  # numbered in order of first appearance
    order = numpy.argsort(group, kind="stable")
    bounds = numpy.cumsum(numpy.bincount(group))[:-1]
    return [part.tolist() for part in numpy.split(order, bounds)]


class _PointListSpace:
    """Adapter presenting a plain :class:`DesignPoint` list as a (flat)
    search space: every point is its own delay group, no axes, no
    neighbors — stages 0/1 still work, stage 2 has nothing to expand."""

    def __init__(self, points):
        self.name = "points"
        self._list = list(points)
        names = [p.name for p in self._list]
        if len(set(names)) != len(names):
            raise SearchError("searched points need unique names")
        self.freq_axes = {}
        self.bus_width_axis = None
        self.bus_arb_axis = None
        self._hashes = None

    def __len__(self):
        return len(self._list)

    def point(self, index):
        return self._list[index]

    def points(self, indices=None):
        if indices is None:
            return list(self._list)
        return [self._list[i] for i in indices]

    def point_name(self, index):
        return self._list[index].name

    def build(self, meta_or_index):
        raise SearchError("point lists build through their DesignPoints")

    def delay_groups(self, indices):
        return _group_positions(indices)

    def freq_axis_of(self, pe_name):
        return None

    def axis_values(self, axis, indices):
        raise SearchError("point lists have no axes")

    def neighbors(self, index):
        return []

    def point_hash(self, index):
        if self._hashes is None:
            self._hashes = {}
        cached = self._hashes.get(index)
        if cached is None:
            cached = int(
                content_key(self.name, self._list[index].name), 16
            )
            self._hashes[index] = cached
        return cached

    def shard_indices(self, shard, n_shards):
        if not (isinstance(shard, int) and isinstance(n_shards, int)
                and 0 <= shard < n_shards):
            raise SearchError(
                "invalid shard %r/%r (need 0 <= i < N)" % (shard, n_shards)
            )
        return [i for i in range(len(self._list))
                if self.point_hash(i) % n_shards == shard]


def as_search_space(space_or_points):
    """Normalise ``search``'s first argument to a space-like object."""
    if isinstance(space_or_points, (SearchSpace, _PointListSpace)):
        return space_or_points
    return _PointListSpace(space_or_points)


# -- stage 0: the vectorized static scorer -----------------------------------

def _group_model(space, rep_index, store):
    """The delay group's analytic model, from ONE representative design.

    Returns ``(base_ns, freq_cycles, bus_hist, buses)`` where ``base_ns``
    is the computation time of processes on fixed-clock PEs,
    ``freq_cycles`` maps each frequency axis to the cycle count its PE
    executes, and ``bus_hist`` maps bus name to a ``{words: sends}``
    histogram of profiled transactions.
    """
    rep = space.points([rep_index])[0]
    design = rep.build()
    profile = profile_design(design, store=store)
    comp = process_comp_cycles(design, store=store, profile=profile)
    base_ns = 0.0
    freq_cycles = {}
    for proc, cycles in comp.items():
        pe_name = design.processes[proc].pe_name
        axis = space.freq_axis_of(pe_name)
        if axis is None:
            base_ns += cycles * design.pes[pe_name].cycle_ns
        else:
            freq_cycles[axis] = freq_cycles.get(axis, 0.0) + cycles
    bus_hist = {}
    for proc, sends in profile.sends.items():
        for chan, words, times in sends:
            bus_name = design.channels[chan].bus_name
            per_bus = bus_hist.setdefault(bus_name, {})
            per_bus[words] = per_bus.get(words, 0) + times
    return base_ns, freq_cycles, bus_hist, dict(design.buses)


def static_scores(space, indices, store=None):
    """Stage-0 scores (estimated reference cycles) of ``indices``.

    One profile + one annotation pass per delay group; the per-point
    frequency and bus terms are numpy-vectorized across each group.
    Returns ``(scores, counters)`` with ``scores[i]`` aligned to
    ``indices[i]``.
    """
    import numpy

    store = store or default_store()
    index = numpy.asarray(indices, dtype=numpy.int64)
    scores = numpy.zeros(len(index))
    groups = space.delay_groups(indices)
    for positions in groups:
        positions = numpy.asarray(positions)
        sub = index[positions]
        base_ns, freq_cycles, bus_hist, buses = _group_model(
            space, int(sub[0]), store,
        )
        est = numpy.full(len(sub), base_ns, dtype=float)
        for axis, cycles in freq_cycles.items():
            mhz = space._axis_array(axis, sub, float)
            est += cycles * (1000.0 / mhz)
        for bus_name, hist in bus_hist.items():
            bus = buses[bus_name]
            if space.bus_width_axis is not None:
                width = space._axis_array(space.bus_width_axis, sub,
                                          numpy.int64)
            else:
                width = numpy.int64(bus.words_per_cycle)
            if space.bus_arb_axis is not None:
                arb = space._axis_array(space.bus_arb_axis, sub, numpy.int64)
            else:
                arb = numpy.int64(bus.arbitration_cycles)
            cycles = arb * sum(hist.values())
            for words, times in hist.items():
                cycles = cycles + times * ((words + width - 1) // width)
            est += bus.cycle_ns * cycles
        scores[positions] = est / REFERENCE_CYCLE_NS
    counters = {
        "scored": len(indices),
        "delay_groups": len(groups),
    }
    return scores.tolist(), counters


# -- the report --------------------------------------------------------------

class StageStats:
    """One search stage's outcome: points in, points kept, wall time, and
    CacheStats-style counters (artifact hits/misses, replay engine use)."""

    __slots__ = ("name", "entered", "kept", "seconds", "counters")

    def __init__(self, name, entered=0):
        self.name = name
        self.entered = entered
        self.kept = entered
        self.seconds = 0.0
        self.counters = {}

    @property
    def pruned(self):
        return self.entered - self.kept

    @property
    def prune_rate(self):
        return self.pruned / self.entered if self.entered else 0.0

    def as_dict(self):
        return {
            "stage": self.name,
            "entered": self.entered,
            "kept": self.kept,
            "pruned": self.pruned,
            "prune_rate": self.prune_rate,
            "seconds": self.seconds,
            "counters": dict(self.counters),
        }

    def __repr__(self):
        return "StageStats(%s: %d -> %d in %.3fs)" % (
            self.name, self.entered, self.kept, self.seconds,
        )


#: Artifact kinds whose per-stage cache deltas land in every stage's
#: counters (``{"artifacts": {kind: {hits, misses, stored, evicted}}}``).
_TRACKED_KINDS = (PROFILE_KIND, "tlm-delays", "sim-trace")


class SearchReport:
    """Per-stage accounting of one staged search run."""

    def __init__(self, space_points, shard=None):
        self.space_points = space_points
        self.shard = shard
        self.stages = []

    @contextmanager
    def stage(self, name, entered, store=None):
        stats = StageStats(name, entered)
        self.stages.append(stats)
        snapshots = {}
        if store is not None:
            snapshots = {
                kind: store.stats(kind).snapshot()
                for kind in _TRACKED_KINDS
            }
        start = time.perf_counter()
        try:
            yield stats
        finally:
            stats.seconds = time.perf_counter() - start
            if store is not None:
                stats.counters["artifacts"] = {
                    kind: store.stats(kind).delta(snapshot)
                    for kind, snapshot in snapshots.items()
                }

    def stage_named(self, name):
        for stats in self.stages:
            if stats.name == name:
                return stats
        return None

    @property
    def total_seconds(self):
        return sum(stats.seconds for stats in self.stages)

    @property
    def simulated_points(self):
        """Points that reached a simulation tier (timed TLM or replay) —
        the searched fraction of the space."""
        return sum(
            stats.entered for stats in self.stages
            if stats.name in ("approx-rung", "exact", "refine")
        )

    def as_dict(self):
        return {
            "space_points": self.space_points,
            "shard": ("%d/%d" % self.shard) if self.shard else None,
            "total_seconds": self.total_seconds,
            "stages": [stats.as_dict() for stats in self.stages],
        }


class SearchResult:
    """The staged search outcome: exact-tier results plus the report.

    ``exploration`` holds one exact (timed-TLM / exact-replay)
    :class:`~repro.explore.PointResult` per evaluated point, each carrying
    its original space ``index`` so rankings and Pareto ties break exactly
    as an exhaustive ``explore`` of the same space would.
    """

    def __init__(self, exploration, report):
        self.exploration = exploration
        self.report = report

    @property
    def results(self):
        return self.exploration.results

    @property
    def failures(self):
        return self.exploration.failures

    def ranked(self, objective=None):
        return self.exploration.ranked(objective)

    def best(self, objective=None, constraint=None):
        return self.exploration.best(objective, constraint)

    def pareto_front(self):
        return self.exploration.pareto_front()

    def __len__(self):
        return len(self.exploration)

    def __repr__(self):
        return "SearchResult(%d evaluated of %d, %.3fs)" % (
            len(self.exploration), self.report.space_points,
            self.report.total_seconds,
        )


# -- the staged engine -------------------------------------------------------

def _parse_stages(stages):
    chosen = {c for c in str(stages) if c not in ",- "}
    if not chosen <= {"0", "1", "2"}:
        raise SearchError(
            'stages must combine "0", "1", "2" (got %r)' % (stages,)
        )
    return chosen


def _cut_size(entered, keep_top, rung_fraction):
    """How many points survive one cut (the containment knobs)."""
    return min(entered, max(keep_top, math.ceil(entered * rung_fraction)))


def _lowest(indices, values, keep):
    """The ``keep`` indices of lowest value (ties to the lower index), in
    index order."""
    import numpy

    order = numpy.lexsort((indices, values))  # by value, then index
    return sorted(numpy.asarray(indices, dtype=numpy.int64)[order[:keep]]
                  .tolist())


def parse_shard(text):
    """``"i/N"`` -> ``(i, N)`` with validation (the CLI's ``--shard``)."""
    try:
        shard, n_shards = text.split("/")
        shard, n_shards = int(shard), int(n_shards)
    except (ValueError, AttributeError):
        raise SearchError("shard must look like i/N, e.g. 0/4") from None
    if not 0 <= shard < n_shards:
        raise SearchError(
            "shard %d/%d out of range (need 0 <= i < N)" % (shard, n_shards)
        )
    return shard, n_shards


def search(space, granularity="transaction", stages="012", keep_top=16,
           rung_fraction=0.05, budget=0, shard=None, workers=1,
           checkpoint=None, point_timeout=None, replay_validate=1,
           replay_tolerance=0.05, faults=None):
    """Staged search of ``space`` (a :class:`SearchSpace` or a plain list
    of :class:`~repro.explore.DesignPoint`).

    Args:
        stages: which optional stages run — any combination of ``"0"``
            (static prune), ``"1"`` (approx-replay rung) and ``"2"``
            (Pareto refinement).  The exact timed-TLM evaluation of the
            finalists always runs; ``stages=""`` is exhaustive exact
            exploration.
        keep_top / rung_fraction: every cut keeps at least ``keep_top``
            points and at least ``ceil(entered * rung_fraction)``.
        budget: stage-2 evaluation budget (extra points; 0 disables).
        shard: ``(i, N)`` — restrict to the deterministic content-hash
            shard ``i`` of ``N`` (see :meth:`SearchSpace.shard_indices`).
        checkpoint: path (or :class:`ExplorationCheckpoint`) receiving
            every exact-tier result — shard runs pass distinct paths and
            :func:`merge_shard_results` unions them later.  Approx-rung
            scores never touch the checkpoint (they are not exact).
        workers / point_timeout / replay_validate / replay_tolerance:
            forwarded to the underlying :func:`~repro.explore.explore`.
        faults: optional :class:`~repro.faults.FaultScenario` injected
            into every simulated point (forwarded to every ``explore``
            call).  Replay tiers degrade to kernel runs — trace recording
            is rejected under fault injection — and ``checkpoint`` is
            refused (perturbed counts must not be cached as clean).

    Returns:
        a :class:`SearchResult`; its ``exploration`` contains exact-tier
        results only, indexed by original space position.
    """
    space = as_search_space(space)
    chosen = _parse_stages(stages)
    if keep_top < 1:
        raise SearchError("keep_top must be >= 1")
    if not 0.0 < rung_fraction <= 1.0:
        raise SearchError("rung_fraction must be in (0, 1]")
    store = default_store()
    start = time.perf_counter()

    if shard is not None:
        indices = space.shard_indices(*shard)
    else:
        indices = list(range(len(space)))
    report = SearchReport(len(space), shard=shard)

    ckpt = None
    if checkpoint is not None:
        if faults is not None:
            raise CheckpointError(
                "fault-injected searches cannot be checkpointed: the "
                "perturbed cycle counts would later be restored as clean "
                "results — drop checkpoint= or faults="
            )
        ckpt = (
            checkpoint if isinstance(checkpoint, ExplorationCheckpoint)
            else ExplorationCheckpoint(checkpoint, granularity)
        )

    refine = "2" in chosen and budget > 0
    scores = {}
    survivors = indices
    if "0" in chosen and len(indices) > _cut_size(
            len(indices), keep_top, rung_fraction):
        with report.stage("static", len(indices), store) as stats:
            values, counters = static_scores(space, indices, store=store)
            survivors = _lowest(indices, values, _cut_size(
                len(indices), keep_top, rung_fraction))
            if refine:
                scores = dict(zip(indices, values))
            stats.kept = len(survivors)
            stats.counters.update(counters)

    finalists = survivors
    if "1" in chosen and len(survivors) > _cut_size(
            len(survivors), keep_top, rung_fraction):
        with report.stage("approx-rung", len(survivors), store) as stats:
            rung = explore(
                space.points(survivors), granularity=granularity,
                workers=workers, point_timeout=point_timeout,
                replay="approx", replay_validate=replay_validate,
                replay_tolerance=replay_tolerance, faults=faults,
            )
            keep = _cut_size(len(survivors), keep_top, rung_fraction)
            ranked = rung.ranked()
            finalists = sorted(survivors[r.index] for r in ranked[:keep])
            stats.kept = len(finalists)
            stats.counters.update(rung.replay_stats or {})
            stats.counters["failed"] = len(rung.failures)

    results = {}
    with report.stage("exact", len(finalists), store) as stats:
        exact = explore(
            space.points(finalists), granularity=granularity,
            workers=workers, point_timeout=point_timeout,
            checkpoint=ckpt, replay="auto",
            replay_validate=replay_validate,
            replay_tolerance=replay_tolerance, faults=faults,
        )
        for result, index in zip(exact.results, finalists):
            result.index = index
            results[index] = result
        stats.counters.update(exact.replay_stats or {})
        stats.counters["restored"] = sum(
            1 for r in exact.results if r.cached
        )
        stats.counters["failed"] = len(exact.failures)

    if refine:
        allowed = set(indices)
        with report.stage("refine", 0, store) as stats:
            remaining = budget
            rounds = 0
            while remaining > 0:
                interim = ExplorationResult(
                    sorted(results.values(), key=lambda r: r.index), 0.0,
                )
                seen = set(results)
                candidates = []
                for front_result in interim.pareto_front():
                    for neighbor in space.neighbors(front_result.index):
                        if neighbor in allowed and neighbor not in seen:
                            seen.add(neighbor)
                            candidates.append(neighbor)
                if not candidates:
                    break
                candidates.sort(
                    key=lambda i: (scores.get(i, float("inf")), i)
                )
                batch = sorted(candidates[:remaining])
                expansion = explore(
                    space.points(batch), granularity=granularity,
                    workers=workers, point_timeout=point_timeout,
                    checkpoint=ckpt, replay="auto",
                    replay_validate=replay_validate,
                    replay_tolerance=replay_tolerance, faults=faults,
                )
                for result, index in zip(expansion.results, batch):
                    result.index = index
                    results[index] = result
                remaining -= len(batch)
                rounds += 1
            stats.entered = budget
            stats.kept = budget - remaining
            stats.counters["rounds"] = rounds

    exploration = ExplorationResult(
        sorted(results.values(), key=lambda r: r.index),
        time.perf_counter() - start, workers=workers,
    )
    return SearchResult(exploration, report)


# -- shard merging -----------------------------------------------------------

def merge_checkpoints(paths, output=None, granularity="transaction"):
    """Union shard checkpoint files into one completed-points mapping.

    Overlapping points must agree bit-for-bit on their cycle counts (the
    exact tier is deterministic, so a disagreement means the shards ran
    different configurations — that raises :class:`CheckpointError`
    instead of silently picking one).  With ``output``, the union is also
    written as a regular checkpoint file ready to seed further sweeps.
    """
    merged = {}
    origin = {}
    for path in paths:
        ckpt = ExplorationCheckpoint(path, granularity)
        for name, entry in ckpt.completed.items():
            previous = merged.get(name)
            if previous is None:
                merged[name] = entry
                origin[name] = path
            elif (previous["makespan_cycles"] != entry["makespan_cycles"]
                  or previous["per_process_cycles"]
                  != entry["per_process_cycles"]):
                raise CheckpointError(
                    "shard checkpoints disagree on point %r "
                    "(%s vs %s) — were they run with the same "
                    "space and configuration?" % (name, origin[name], path)
                )
    if output is not None:
        out = ExplorationCheckpoint(output, granularity)
        out.completed = dict(merged)
        out.save()
    return merged


def merge_shard_results(space_or_points, paths, output=None,
                        granularity="transaction"):
    """Union shard checkpoints into one :class:`ExplorationResult`.

    Every point of the space found in any shard checkpoint becomes a
    restored (``cached=True``) result — zero re-evaluations; points no
    shard completed become failed results (``error="missing"``-style) so
    gaps are visible instead of silently dropped.
    """
    space = as_search_space(space_or_points)
    merged = merge_checkpoints(paths, output=output, granularity=granularity)
    results = []
    for index in range(len(space)):
        point = space.point(index)
        entry = merged.get(point.name)
        if entry is not None:
            results.append(PointResult(
                point,
                makespan_cycles=entry["makespan_cycles"],
                per_process_cycles=entry["per_process_cycles"],
                wall_seconds=entry.get("wall_seconds", 0.0),
                cached=True,
                index=index,
            ))
        else:
            results.append(PointResult(
                point, error="not evaluated by any merged shard",
                index=index,
            ))
    return ExplorationResult(results, 0.0)


# -- the MP3 product space ---------------------------------------------------

def mp3_product_space(params=None, variants=("SW+2",), n_frames=1, seed=7,
                      icache_sizes=(8 * 1024,), dcache_sizes=(4 * 1024,),
                      bus_widths=(1, 2, 4), bus_arbitrations=(1, 2, 4),
                      cpu_mhz=(100.0,), traffic=(), traffic_policy="fifo"):
    """The MP3 case study as a :class:`SearchSpace` product.

    Variant and cache geometry are design axes (one delay group per
    combination); bus width/arbitration and the CPU clock are analytic
    axes.  Sources are built once per variant and PUMs once per variant
    and cache configuration, and shared by every point (a point's clock is
    a :meth:`~repro.pum.model.PUM.with_frequency` copy, which keeps the
    cached fingerprint) — assembling one design costs microseconds, so
    even 10^4-10^6-point spaces enumerate cheaply.

    A non-empty ``traffic`` adds an instance-count design axis: those
    points evaluate via :func:`repro.workloads.run_traffic` (N lockstep
    instances contending on buses armed with ``traffic_policy``), so the
    search ranks platforms by loaded makespan instead of single-run
    makespan.  Traffic points ride their own replay tier: the staged
    rungs evaluate them through the analytic grant-queue replay
    (:mod:`repro.workloads.traffic_replay`), which is exact where it can
    prove it and falls back to kernel runs where it cannot.
    """
    from .apps.mp3 import Mp3Params
    from .apps.mp3.designs import build_design, build_pums
    from .apps.mp3.source import VARIANT_MAPPINGS, build_sources

    params = params or Mp3Params()
    source_cache = {}
    pum_cache = {}

    def sources_for(variant):
        if variant not in source_cache:
            source_cache[variant] = build_sources(
                variant, params, n_frames, seed,
            )
        return source_cache[variant]

    def pums_for(meta):
        key = (meta["variant"], meta["icache"], meta["dcache"])
        if key not in pum_cache:
            pum_cache[key] = build_pums(*key)
        pums = pum_cache[key]
        return dict(pums, cpu=pums["cpu"].with_frequency(meta["cpu_mhz"]))

    def build(meta):
        design, _ = build_design(
            meta["variant"], params, n_frames, seed,
            icache_size=meta["icache"], dcache_size=meta["dcache"],
            sources=sources_for(meta["variant"]), pums=pums_for(meta),
        )
        for bus in design.buses.values():
            bus.words_per_cycle = meta["bus_width"]
            bus.arbitration_cycles = meta["bus_arb"]
            if meta.get("traffic") and traffic_policy is not None:
                bus.policy = traffic_policy
        return design

    def area(meta):
        return len(VARIANT_MAPPINGS[meta["variant"]])

    axes = [
        ("variant", tuple(variants)),
        ("icache", tuple(icache_sizes)),
        ("dcache", tuple(dcache_sizes)),
        ("bus_width", tuple(bus_widths)),
        ("bus_arb", tuple(bus_arbitrations)),
        ("cpu_mhz", tuple(cpu_mhz)),
    ]
    if traffic:
        axes.append(("traffic", tuple(traffic)))
    return SearchSpace(
        "mp3",
        axes,
        build,
        freq_axes={"cpu_mhz": "cpu"},
        bus_width_axis="bus_width",
        bus_arb_axis="bus_arb",
        area=area,
    )
