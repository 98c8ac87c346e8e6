"""Design-space exploration on top of timed TLMs.

The point of fast cycle-approximate TLMs (paper Section 1) is early
exploration: "choosing the optimal platform for a given application and the
optimal mapping of the application to the platform".  This module gives that
workflow a small API: declare candidate design points, evaluate each with an
automatically generated timed TLM, and rank them under an objective and
optional constraints.

Evaluation cost is seconds per point (Table 1), so exhaustive sweeps of
dozens of points are practical where ISS/RTL evaluation would take days.
Points are independent, so :func:`explore` can fan them out over a
``concurrent.futures`` process pool (``workers=N``); results come back in
submission order regardless of completion order, so rankings are
deterministic (see docs/performance.md).

Long sweeps are treated as production jobs (see docs/robustness.md):

* a worker killed mid-sweep (OOM, SIGKILL) breaks only its own points —
  the pool is rebuilt and the lost points retried with exponential backoff,
  degrading to in-process sequential evaluation when pools keep dying;
* ``point_timeout`` bounds how long any single point may hang; a stuck
  point is recorded as a failed :class:`PointResult` instead of wedging the
  sweep;
* ``checkpoint=<path>`` persists every completed point to an atomic JSON
  file, so an interrupted sweep resumes without re-evaluating anything.
"""

from __future__ import annotations

import os
import time

from .artifacts import default_store
from .errors import InputError
from .ioutil import atomic_write_json
from .parallel import fork_map, get_payload
from .tlm.generator import (
    CODE_IR_KIND,
    DELAYS_KIND,
    GENSRC_KIND,
    GenerationReport,
    IR_KIND,
    generate_tlm,
    merge_generation_summaries,
)

#: Artifact kinds a prewarm child ships back to the parent.  ``tlm-code``
#: is excluded: code objects don't pickle, and workers recompile cached
#: source in microseconds anyway.
_PREWARM_KINDS = (IR_KIND, CODE_IR_KIND, DELAYS_KIND, GENSRC_KIND)

#: Checkpoint-file format version.
CHECKPOINT_FORMAT_VERSION = 1


class CheckpointError(InputError):
    """Raised for unreadable or mismatched exploration checkpoints."""

    code = "checkpoint"


class DesignPoint:
    """One candidate: a named design plus bookkeeping metadata.

    ``build`` is a zero-argument callable returning a fresh
    :class:`~repro.tlm.platform.Design` (TLMs mutate nothing, but fresh
    designs keep points independent).  ``area`` is an arbitrary cost proxy
    (the MP3 study uses the number of custom-HW units).
    """

    __slots__ = ("name", "build", "area", "meta")

    def __init__(self, name, build, area=0, meta=None):
        self.name = name
        self.build = build
        self.area = area
        self.meta = dict(meta or {})

    def __repr__(self):
        return "DesignPoint(%r, area=%r)" % (self.name, self.area)


class PointResult:
    """Evaluation outcome of one design point.

    ``tlm_result`` is the full simulation outcome when the point was
    evaluated in-process; points evaluated in a worker process carry only
    the cycle summary (``tlm_result is None``), since simulation state does
    not cross the process boundary.

    ``error`` is ``None`` for a successful evaluation; a failed point (its
    evaluation raised, timed out, or was lost beyond retry) carries a
    one-line description instead of cycle numbers and is excluded from
    rankings.  ``cached`` marks results restored from a checkpoint file.

    ``generation`` is the point's compact TLM-generation summary
    (:meth:`~repro.tlm.generator.GenerationReport.summary`) — unlike the
    full simulation state, it is plain data and *does* cross the process
    boundary, so per-stage generation statistics survive ``workers>1``.
    Checkpoint-restored points carry ``None`` (nothing was generated).

    ``replayed`` marks points whose cycle counts came from the simtrace
    replay engines instead of a kernel run (see ``explore(replay=...)``);
    ``index`` is the point's position in the sweep's input order, the
    deterministic tie-breaker for :meth:`ExplorationResult.ranked`.
    """

    __slots__ = ("point", "makespan_cycles", "per_process_cycles",
                 "wall_seconds", "tlm_result", "error", "cached",
                 "generation", "replayed", "index")

    def __init__(self, point, tlm_result=None, wall_seconds=0.0,
                 makespan_cycles=None, per_process_cycles=None,
                 error=None, cached=False, generation=None,
                 replayed=False, index=None):
        self.point = point
        if tlm_result is not None:
            self.makespan_cycles = tlm_result.makespan_cycles
            self.per_process_cycles = {
                name: p.cycles for name, p in tlm_result.processes.items()
            }
        else:
            self.makespan_cycles = makespan_cycles
            self.per_process_cycles = dict(per_process_cycles or {})
        self.wall_seconds = wall_seconds
        self.tlm_result = tlm_result
        self.error = error
        self.cached = cached
        self.generation = generation
        self.replayed = replayed
        self.index = index

    @property
    def ok(self):
        return self.error is None

    def __repr__(self):
        if self.error is not None:
            return "PointResult(%r: failed: %s)" % (
                self.point.name, self.error,
            )
        return "PointResult(%r: %d cycles)" % (
            self.point.name, self.makespan_cycles,
        )


class ExplorationResult:
    """All evaluated points plus ranking helpers."""

    def __init__(self, results, total_seconds, workers=1, replay_stats=None):
        self.results = list(results)
        self.total_seconds = total_seconds
        self.workers = workers
        #: trace-replay counters when the sweep ran with ``replay != "off"``
        #: (``None`` otherwise): captures, reuses, replays per engine,
        #: validations and fallbacks — see :func:`explore`.
        self.replay_stats = replay_stats

    @property
    def failures(self):
        """Points whose evaluation failed (empty on a clean sweep)."""
        return [r for r in self.results if not r.ok]

    def ranked(self, objective=None):
        """Successful points sorted best-first by ``objective(result)``
        (default: makespan cycles); failed points are excluded.

        Objective ties break deterministically by the point's input-order
        index, not by the order of ``self.results`` (which a checkpoint
        restore or manual construction may have permuted).
        """
        key = objective or (lambda r: r.makespan_cycles)
        candidates = list(enumerate(r for r in self.results if r.ok))

        def sort_key(entry):
            pos, result = entry
            index = result.index if result.index is not None else pos
            return (key(result), index, pos)

        return [result for _, result in sorted(candidates, key=sort_key)]

    def best(self, objective=None, constraint=None):
        """The best point satisfying ``constraint(result)`` (or ``None``)."""
        for result in self.ranked(objective):
            if constraint is None or constraint(result):
                return result
        return None

    def pareto_front(self):
        """Points not dominated in (makespan, area) — the classic DSE view.

        Failed points cannot be compared and are excluded.  Objective ties
        order deterministically by the point's input-order index (the same
        rule as :meth:`ranked`), not by ``self.results`` order.
        """
        candidates = [entry for entry in enumerate(self.results)
                      if entry[1].ok]
        front = []
        for pos, candidate in candidates:
            dominated = False
            for _, other in candidates:
                if other is candidate:
                    continue
                if (other.makespan_cycles <= candidate.makespan_cycles
                        and other.point.area <= candidate.point.area
                        and (other.makespan_cycles < candidate.makespan_cycles
                             or other.point.area < candidate.point.area)):
                    dominated = True
                    break
            if not dominated:
                front.append((pos, candidate))

        def order(entry):
            pos, result = entry
            index = result.index if result.index is not None else pos
            return (result.point.area, result.makespan_cycles, index, pos)

        return [result for _, result in sorted(front, key=order)]

    def generation_summary(self):
        """Sweep-level TLM-generation statistics (per-stage seconds and
        hit/miss counts summed over every point that generated a TLM this
        run, local or in a worker).  ``points`` counts contributing points;
        checkpoint-restored and failed points contribute nothing."""
        return merge_generation_summaries(
            r.generation for r in self.results
        )

    def __len__(self):
        return len(self.results)


class ExplorationCheckpoint:
    """Atomic JSON persistence of completed design points.

    Every completed point is recorded (and the file rewritten atomically)
    as soon as its result reaches the parent process, so a sweep killed at
    any moment leaves a loadable checkpoint behind.  Re-running with the
    same path restores those points without re-evaluating them.

    The file binds to the sweep's wait granularity: resuming a checkpoint
    written under a different granularity would silently mix cycle counts
    from different simulation configurations, so that raises
    :class:`CheckpointError` instead.
    """

    def __init__(self, path, granularity="transaction"):
        self.path = path
        self.granularity = granularity
        self.completed = {}  # point name -> payload dict
        self._load()

    def _load(self):
        if not os.path.exists(self.path):
            return
        import json

        try:
            with open(self.path) as handle:
                data = json.load(handle)
        except (OSError, ValueError) as exc:
            raise CheckpointError(
                "checkpoint %s is unreadable: %s" % (self.path, exc)
            ) from None
        if not isinstance(data, dict) or (
            data.get("version") != CHECKPOINT_FORMAT_VERSION
        ):
            raise CheckpointError(
                "checkpoint %s has an unsupported format (version %r)"
                % (self.path, data.get("version") if isinstance(data, dict)
                   else None)
            )
        if data.get("granularity") != self.granularity:
            raise CheckpointError(
                "checkpoint %s was written for granularity %r, this sweep "
                "uses %r — delete the file or match the granularity"
                % (self.path, data.get("granularity"), self.granularity)
            )
        for name, entry in data.get("points", {}).items():
            if (isinstance(entry, dict)
                    and "makespan_cycles" in entry
                    and "per_process_cycles" in entry):
                self.completed[name] = entry

    def record(self, name, makespan_cycles, per_process_cycles,
               wall_seconds):
        """Persist one completed point (atomic rewrite)."""
        self.completed[name] = {
            "makespan_cycles": makespan_cycles,
            "per_process_cycles": dict(per_process_cycles),
            "wall_seconds": wall_seconds,
        }
        self.save()

    def save(self):
        atomic_write_json(self.path, {
            "version": CHECKPOINT_FORMAT_VERSION,
            "granularity": self.granularity,
            "points": self.completed,
        })

    def __len__(self):
        return len(self.completed)


def _evaluate_point_index(index):
    """Worker-side evaluation of one design point (runs in a forked child).

    Design-point builders are closures (not picklable) and the warm
    artifact store holds live IR and code objects, so both travel through
    :func:`repro.parallel.fork_map`'s pre-fork payload (inherited by the
    forked children) and only this index crosses the process boundary.
    The returned tuple ends with the point's generation summary — plain
    data, so per-stage statistics survive the trip back to the parent.
    """
    payload = get_payload()
    point = payload["points"][index]
    design = point.build()
    report = GenerationReport(design.name, True)
    spec = _traffic_spec_of(point)
    if spec is not None:
        result = _evaluate_traffic(
            point, design, spec, payload["granularity"],
            store=payload["store"], faults=payload.get("faults"),
        )
        if not result.ok:
            raise RuntimeError(result.error)
        return (result.makespan_cycles, result.per_process_cycles,
                result.wall_seconds, report.summary())
    model = generate_tlm(design, timed=True,
                         granularity=payload["granularity"],
                         report=report, store=payload["store"])
    wall_start = time.perf_counter()
    tlm_result = model.run(faults=payload.get("faults"))
    wall = time.perf_counter() - wall_start
    per_process = {
        name: p.cycles for name, p in tlm_result.processes.items()
    }
    return tlm_result.makespan_cycles, per_process, wall, report.summary()


def _explore_parallel(points, granularity, workers, indices, store=None,
                      point_timeout=None, retries=2, retry_backoff=0.5,
                      on_result=None, faults=None):
    """Evaluate ``indices`` of ``points`` through the shared fork pool.

    Returns ``{index: ("ok", (makespan, per_process, wall, gen_summary)) |
    ("error", message)}`` with :func:`repro.parallel.fork_map`'s
    degradation semantics (missing indices / ``None``: see there).
    """
    return fork_map(
        _evaluate_point_index, indices, workers,
        payload={"points": points, "granularity": granularity,
                 "store": store, "faults": faults},
        task_timeout=point_timeout, retries=retries,
        retry_backoff=retry_backoff, on_result=on_result,
    )


def _prewarm_generate(task):
    """Prewarm-task body (runs in a forked child, see
    :func:`_prewarm_store`): generate every pending point's TLM against the
    inherited store copy, then return the picklable entries the parent does
    not already hold."""
    payload = get_payload()
    points = payload["points"]
    store = payload["store"]
    for index in payload["indices"]:
        try:
            generate_tlm(points[index].build(), timed=True,
                         granularity=payload["granularity"], store=store)
        except Exception:
            pass
    known = payload["known"]
    return [
        (kind, key, value)
        for kind in _PREWARM_KINDS
        for key, value in store.items(kind)
        if key not in known[kind]
    ]


def _prewarm_store(points, indices, granularity, store,
                   point_timeout=None, retry_backoff=0.5):
    """Generate (but do not run) the todo points' TLMs once, pre-fork.

    This fills the artifact store — front-end IR, per-block delays and
    generated source — before the worker pool forks.  Points share sources
    (and often PUMs), so each distinct stage is paid once; children then
    inherit the warm store copy-on-write, so workers mostly ``exec`` cached
    modules instead of re-running the front-end per point.  Simulation, the
    dominant cost, still fans out.

    Point builders are arbitrary user code that may crash, ``SIGKILL``
    itself (a worker dying of OOM is the documented failure mode this sweep
    survives) or hang — so the generation runs in a forked child of its
    own, shipping picklable store entries back; the parent never executes a
    builder here.  Best-effort in every failure direction: if the child
    dies or times out, the sweep proceeds with whatever store warmth exists
    and the offending point fails (or not) through the normal evaluation
    paths.
    """
    known = {
        kind: {key for key, _ in store.items(kind)}
        for kind in _PREWARM_KINDS
    }
    timeout = None
    if point_timeout is not None:
        # Generation is far cheaper than the simulation point_timeout
        # bounds, so one point's budget per pending point is generous.
        timeout = point_timeout * max(1, len(indices))
    result = fork_map(
        _prewarm_generate, [0], workers=1,
        payload={"points": points, "indices": list(indices),
                 "granularity": granularity, "store": store,
                 "known": known},
        task_timeout=timeout, retries=1, retry_backoff=retry_backoff,
    )
    if not result or result.get(0, ("error",))[0] != "ok":
        return
    for kind, key, value in result[0][1]:
        try:
            store.put(kind, key, value)
        except Exception:
            pass


def _traffic_spec_of(point):
    """The point's :class:`~repro.workloads.TrafficSpec`, or ``None``.

    ``meta["traffic"]`` opts a design point into traffic-mode evaluation
    (N instances over one shared platform, see :mod:`repro.workloads`);
    accepted shapes: a TrafficSpec, its ``to_dict`` form, or a bare
    instance count (search axes sweep plain integers).
    """
    spec = point.meta.get("traffic")
    if spec is None:
        return None
    from .workloads import TrafficSpec

    if isinstance(spec, TrafficSpec):
        return spec
    if isinstance(spec, dict):
        return TrafficSpec.from_dict(spec)
    return TrafficSpec(int(spec), arrivals="bursty",
                       burst_size=max(1, int(spec)), mean_gap_cycles=0.0)


def _evaluate_traffic(point, design, spec, granularity, store=None,
                      faults=None):
    """Traffic-mode evaluation of one *prebuilt* design.

    The makespan is the traffic run's first-arrival-to-last-completion
    span; per-process cycles are the per-instance latencies (keyed
    ``instance#i``), so rankings and checkpoints reuse the TLM plumbing
    unchanged.
    """
    from .workloads import run_traffic

    wall_start = time.perf_counter()
    try:
        traffic = run_traffic(design, spec, granularity=granularity,
                              store=store, faults=faults)
    except Exception as exc:
        return PointResult(
            point,
            wall_seconds=time.perf_counter() - wall_start,
            error="%s: %s" % (type(exc).__name__, exc),
        )
    return PointResult(
        point,
        wall_seconds=time.perf_counter() - wall_start,
        makespan_cycles=traffic.makespan_cycles,
        per_process_cycles={
            "instance#%d" % i: latency
            for i, latency in enumerate(traffic.latencies_cycles)
        },
    )


def _evaluate_with_trace(point, design, granularity, store=None):
    """In-process evaluation of one *prebuilt* design with trace capture.

    Returns ``(PointResult, SimTrace | None)``; capture failures degrade to
    a failed result with no trace, exactly like :func:`_evaluate_sequential`.
    """
    from .simtrace import capture_tlm_trace

    wall_start = time.perf_counter()
    report = GenerationReport(point.name, True)
    try:
        trace, tlm_result = capture_tlm_trace(
            design, granularity=granularity, store=store, report=report,
        )
    except Exception as exc:
        return PointResult(
            point,
            wall_seconds=time.perf_counter() - wall_start,
            error="%s: %s" % (type(exc).__name__, exc),
        ), None
    return PointResult(
        point, tlm_result, time.perf_counter() - wall_start,
        generation=report.summary(),
    ), trace


def _evaluate_design(point, design, granularity, store=None, faults=None):
    """In-process evaluation of one *prebuilt* design (no capture)."""
    spec = _traffic_spec_of(point)
    if spec is not None:
        return _evaluate_traffic(point, design, spec, granularity,
                                 store=store, faults=faults)
    wall_start = time.perf_counter()
    report = GenerationReport(point.name, True)
    try:
        model = generate_tlm(design, timed=True, granularity=granularity,
                             report=report, store=store)
        tlm_result = model.run(faults=faults)
    except Exception as exc:
        return PointResult(
            point,
            wall_seconds=time.perf_counter() - wall_start,
            error="%s: %s" % (type(exc).__name__, exc),
        )
    return PointResult(
        point, tlm_result, time.perf_counter() - wall_start,
        generation=report.summary(),
    )


def _replay_group(points, indices, designs, trace, scales, granularity,
                  store, ckpt, validate_n, tolerance, slots, stats):
    """Replay one signature group against ``trace``; fills ``slots``.

    ``scales`` carries the approximate-tier delay rescales per index
    (``None`` ⇒ exact tier for that index).  The first ``validate_n``
    candidates are *also* fully simulated; an exact-tier candidate must
    match its replay bit-for-bit, an approximate one within ``tolerance``
    relative makespan error.  Any divergence abandons the whole group —
    every not-yet-recorded index is left for the normal simulation paths
    (returned as the unresolved list).
    """
    from .simtrace import replay_many

    outcomes, engine_stats = replay_many(
        trace, [designs[i] for i in indices],
        delay_scales=[scales.get(i) for i in indices],
    )
    stats["vectorized"] += engine_stats["vectorized"]
    stats["scalar"] += engine_stats["scalar"]

    accepted = []
    for position, index in enumerate(indices):
        outcome = outcomes[position]
        if position < validate_n:
            reference = _evaluate_design(
                points[index], designs[index], granularity, store=store,
            )
            stats["simulated"] += 1
            stats["validated"] += 1
            diverged = True
            if reference.ok:
                if scales.get(index) is None:
                    diverged = (
                        outcome.makespan_cycles != reference.makespan_cycles
                        or outcome.per_process_cycles
                        != reference.per_process_cycles
                    )
                else:
                    span = reference.makespan_cycles or 1
                    diverged = (
                        abs(outcome.makespan_cycles - span) / span
                        > tolerance
                    )
            slots[index] = reference  # the kernel run is authoritative
            if reference.ok and ckpt is not None:
                ckpt.record(points[index].name, reference.makespan_cycles,
                            reference.per_process_cycles,
                            reference.wall_seconds)
            if diverged:
                stats["fallbacks"] += 1
                return [i for i in indices if slots[i] is None]
        else:
            accepted.append((index, outcome))

    for index, outcome in accepted:
        exact = scales.get(index) is None
        slots[index] = PointResult(
            points[index],
            makespan_cycles=outcome.makespan_cycles,
            per_process_cycles=outcome.per_process_cycles,
            replayed=True,
        )
        stats["replayed_exact" if exact else "replayed_approx"] += 1
        if ckpt is not None:
            ckpt.record(points[index].name, outcome.makespan_cycles,
                        outcome.per_process_cycles, 0.0)
    return []


def _try_replay(points, todo, granularity, store, ckpt, mode, validate_n,
                tolerance, slots):
    """The sweep's trace-replay phase (``explore(replay=...)``).

    Classifies the pending ``todo`` points into replay-signature groups,
    captures (or reuses from the artifact store) one trace per group, and
    replays the remaining members, validating a per-group subset against
    the kernel.  Returns ``(remaining_todo, stats)``; every index either
    got its slot filled or stays in the remaining list for the normal
    simulation paths — builder or capture failures never abort the sweep
    here.
    """
    from .simtrace import (
        TRACE_KIND,
        approx_signature,
        process_delay_totals,
        replay_signature,
    )

    stats = {
        "mode": mode,
        "points": len(todo),
        "traces_captured": 0,
        "traces_reused": 0,
        "replayed_exact": 0,
        "replayed_approx": 0,
        "simulated": 0,
        "validated": 0,
        "fallbacks": 0,
        "vectorized": 0,
        "scalar": 0,
    }
    designs = {}
    exact_sigs = {}
    groups = {}  # group key -> [index]; exact sig (auto) / approx (approx)
    unresolved = []
    for index in todo:
        try:
            design = points[index].build().validate()
            exact_sig = replay_signature(design, granularity=granularity)
            key = (
                approx_signature(design, granularity=granularity)
                if mode == "approx" else exact_sig
            )
        except Exception:
            unresolved.append(index)  # surfaces via the normal paths
            continue
        designs[index] = design
        exact_sigs[index] = exact_sig
        groups.setdefault(key, []).append(index)

    for indices in groups.values():
        trace = None
        # Any member's exact signature may name a stored trace.
        if store is not None:
            for index in indices:
                trace = store.get(TRACE_KIND, exact_sigs[index])
                if trace is not None:
                    stats["traces_reused"] += 1
                    break
        if trace is None:
            # Capture from the group's first member; its kernel run is the
            # member's own result.
            first = indices[0]
            result, trace = _evaluate_with_trace(
                points[first], designs[first], granularity, store=store,
            )
            slots[first] = result
            stats["simulated"] += 1
            if trace is None:
                unresolved.extend(i for i in indices if slots[i] is None)
                continue
            stats["traces_captured"] += 1
            if result.ok and ckpt is not None:
                ckpt.record(points[first].name, result.makespan_cycles,
                            result.per_process_cycles, result.wall_seconds)

        candidates = [i for i in indices if slots[i] is None]
        if not candidates:
            continue
        scales = {}
        try:
            for index in candidates:
                if exact_sigs[index] == trace.signature:
                    scales[index] = None
                else:
                    totals = process_delay_totals(designs[index], store=store)
                    scales[index] = {
                        name: totals[name] / trace.delay_totals[name]
                        if trace.delay_totals.get(name) else 1.0
                        for name in totals
                    }
            unresolved.extend(_replay_group(
                points, candidates, designs, trace, scales, granularity,
                store, ckpt, validate_n, tolerance, slots, stats,
            ))
        except Exception:
            # Replay is an optimisation; any failure returns the group to
            # the kernel paths.
            stats["fallbacks"] += 1
            unresolved.extend(i for i in candidates if slots[i] is None)
    return unresolved, stats


def _try_traffic_replay(points, todo, granularity, store, ckpt, validate_n,
                        slots):
    """The sweep's traffic-replay phase: analytic N-instance evaluation.

    Groups the pending traffic-mode points by full design identity (one
    capture serves every spec of one design), hands each group to
    :func:`repro.workloads.traffic_replay.replay_traffic_sweep` — which
    replays exactly where it can and falls back to kernel runs where it
    must — and fills ``slots`` with the outcomes.  Returns
    ``(remaining_todo, stats)``; only points whose *builder* failed are
    left for the normal paths.
    """
    import json

    from .artifacts import content_key
    from .tlm.serialize import design_to_dict

    stats = {
        "points": len(todo),
        "groups": 0,
        "replayed": 0,
        "simulated": 0,
        "flagged": 0,
        "validated": 0,
        "fallbacks": 0,
    }
    groups = {}  # design content key -> [index]
    designs = {}
    specs = {}
    unresolved = []
    for index in todo:
        try:
            design = points[index].build().validate()
            key = content_key(
                json.dumps(design_to_dict(design), sort_keys=True),
                granularity,
            )
            specs[index] = _traffic_spec_of(points[index])
        except Exception:
            unresolved.append(index)  # surfaces via the normal paths
            continue
        designs[index] = design
        groups.setdefault(key, []).append(index)

    from .workloads.traffic_replay import replay_traffic_sweep

    for indices in groups.values():
        stats["groups"] += 1
        wall_start = time.perf_counter()
        try:
            results, group_stats = replay_traffic_sweep(
                designs[indices[0]], [specs[i] for i in indices],
                granularity=granularity, store=store,
                validate_n=validate_n,
            )
        except Exception:
            # The analytic tier is an optimisation; any failure returns
            # the group to the kernel paths.
            stats["fallbacks"] += len(indices)
            unresolved.extend(indices)
            continue
        for counter in ("replayed", "simulated", "flagged", "validated",
                        "fallbacks"):
            stats[counter] += group_stats.get(counter, 0)
        wall_each = (time.perf_counter() - wall_start) / len(indices)
        for index, traffic in zip(indices, results):
            result = PointResult(
                points[index],
                wall_seconds=wall_each,
                makespan_cycles=traffic.makespan_cycles,
                per_process_cycles={
                    "instance#%d" % i: latency
                    for i, latency in enumerate(traffic.latencies_cycles)
                },
                replayed=traffic.replayed,
            )
            slots[index] = result
            if ckpt is not None:
                ckpt.record(points[index].name, result.makespan_cycles,
                            result.per_process_cycles, result.wall_seconds)
    return unresolved, stats


def _evaluate_sequential(point, granularity, store=None, faults=None):
    """In-process evaluation of one point; never raises for point-local
    failures (returns a failed :class:`PointResult` instead)."""
    spec = _traffic_spec_of(point)
    if spec is not None:
        try:
            design = point.build()
        except Exception as exc:
            return PointResult(
                point, error="%s: %s" % (type(exc).__name__, exc),
            )
        return _evaluate_traffic(point, design, spec, granularity,
                                 store=store, faults=faults)
    wall_start = time.perf_counter()
    report = GenerationReport(point.name, True)
    try:
        design = point.build()
        model = generate_tlm(design, timed=True, granularity=granularity,
                             report=report, store=store)
        tlm_result = model.run(faults=faults)
    except Exception as exc:
        return PointResult(
            point,
            wall_seconds=time.perf_counter() - wall_start,
            error="%s: %s" % (type(exc).__name__, exc),
        )
    return PointResult(
        point, tlm_result, time.perf_counter() - wall_start,
        generation=report.summary(),
    )


def explore(points, granularity="transaction", workers=1,
            point_timeout=None, retries=2, retry_backoff=0.5,
            checkpoint=None, replay="off", replay_validate=1,
            replay_tolerance=0.05, faults=None):
    """Evaluate every design point with a timed TLM.

    Args:
        points: iterable of :class:`DesignPoint`.
        granularity: sc_wait batching granularity for the TLM runs.
        workers: process-pool width.  ``1`` (the default) evaluates
            sequentially in-process — behaviour identical to earlier
            releases; ``N > 1`` evaluates up to N points concurrently in
            forked workers, falling back to the sequential path on
            platforms without ``fork``.  Either way the result list is in
            input order and every cycle count is identical (simulation is
            deterministic), so rankings do not depend on ``workers``.
        point_timeout: optional per-point wall-clock bound (seconds) for
            pool evaluation; a stuck point is recorded as a failed result
            instead of wedging the sweep.
        retries: pool rebuilds tolerated after worker crashes
            (``BrokenProcessPool``) before degrading the remaining points
            to sequential evaluation.
        retry_backoff: base of the exponential backoff (seconds) between
            pool rebuilds.
        checkpoint: optional path (or :class:`ExplorationCheckpoint`) —
            completed points are persisted as they finish and restored on
            the next run instead of being re-evaluated.  Requires unique
            point names.
        replay: the simtrace fast path (see :mod:`repro.simtrace`).
            ``"off"`` (default) simulates every point.  ``"auto"``
            classifies points into exact replay-signature groups, runs ONE
            recorded simulation per group (or reuses a cached trace) and
            *replays* the remaining members bit-identically.  ``"approx"``
            additionally groups across PUM changes, rescaling recorded
            delays by static per-process delay ratios (cycle-approximate).
            The sweep's counters land on
            :attr:`ExplorationResult.replay_stats`.
        replay_validate: per group, how many replayed candidates are also
            fully simulated and compared — bit-identity for exact-tier
            candidates, ``replay_tolerance`` relative makespan error for
            approximate ones.  Divergence falls the whole group back to
            plain simulation.
        replay_tolerance: the approximate-tier validation bound.
        faults: optional :class:`~repro.faults.FaultScenario` injected into
            every point's simulation (resilience sweeps).  Composes with
            the robustness machinery by *degrading*, never by surprising:
            the kernel refuses to record traces of fault-injected runs, so
            any requested ``replay`` tier is skipped and every point takes
            a kernel run (``replay_stats["skipped"]`` says why), and
            fault-perturbed cycle counts must not be restored as clean
            results later, so combining ``faults`` with ``checkpoint``
            raises :class:`CheckpointError`.

    Returns:
        an :class:`ExplorationResult` with one result per input point, in
        input order; failed points carry ``error`` and are excluded from
        rankings (see ``ExplorationResult.failures``).
    """
    points = list(points)
    start = time.perf_counter()

    ckpt = None
    if checkpoint is not None:
        if faults is not None:
            raise CheckpointError(
                "fault-injected sweeps cannot be checkpointed: the "
                "perturbed cycle counts would later be restored as clean "
                "results — drop checkpoint= or faults="
            )
        names = [p.name for p in points]
        if len(set(names)) != len(names):
            raise CheckpointError(
                "checkpointed sweeps need unique point names"
            )
        ckpt = (
            checkpoint if isinstance(checkpoint, ExplorationCheckpoint)
            else ExplorationCheckpoint(checkpoint, granularity)
        )

    slots = [None] * len(points)
    todo = []
    for index, point in enumerate(points):
        entry = ckpt.completed.get(point.name) if ckpt is not None else None
        if entry is not None:
            slots[index] = PointResult(
                point,
                makespan_cycles=entry["makespan_cycles"],
                per_process_cycles=entry["per_process_cycles"],
                wall_seconds=entry.get("wall_seconds", 0.0),
                cached=True,
            )
        else:
            todo.append(index)

    def on_parallel_result(index, payload):
        if ckpt is not None and payload[0] == "ok":
            makespan, per_process, wall = payload[1][:3]
            ckpt.record(points[index].name, makespan, per_process, wall)

    store = default_store()

    if replay not in ("off", "auto", "approx"):
        raise ValueError('replay must be "off", "auto" or "approx"')
    replay_stats = None
    if replay != "off" and faults is not None:
        # The kernel rejects record+faults, so a fault-injected sweep
        # cannot capture traces; degrade the whole phase to kernel runs.
        replay_stats = {"mode": replay, "points": len(todo),
                        "skipped": "fault-injection"}
    elif replay != "off" and todo:
        # Traffic-mode points take their own analytic tier: a recorded
        # single-instance profile plus the per-bus grant-queue replay
        # (exact-with-fallback; see repro.workloads.traffic_replay).
        traffic_todo = [
            i for i in todo if _traffic_spec_of(points[i]) is not None
        ]
        replayable = [
            i for i in todo if _traffic_spec_of(points[i]) is None
        ]
        todo = []
        if replayable:
            unresolved, replay_stats = _try_replay(
                points, replayable, granularity, store, ckpt, replay,
                max(0, int(replay_validate)), replay_tolerance, slots,
            )
            todo = unresolved
        else:
            replay_stats = {"mode": replay, "points": 0,
                            "traces_captured": 0, "traces_reused": 0,
                            "replayed_exact": 0, "replayed_approx": 0,
                            "simulated": 0, "validated": 0, "fallbacks": 0,
                            "vectorized": 0, "scalar": 0}
        if traffic_todo:
            replay_stats["traffic_points"] = len(traffic_todo)
            traffic_unresolved, traffic_stats = _try_traffic_replay(
                points, traffic_todo, granularity, store, ckpt,
                max(0, int(replay_validate)), slots,
            )
            todo = todo + traffic_unresolved
            for key, value in traffic_stats.items():
                if key != "points":
                    replay_stats["traffic_" + key] = value
        todo = sorted(todo)

    used_workers = 1
    if workers > 1 and len(todo) > 1:
        if store is not None:
            _prewarm_store(points, todo, granularity, store,
                           point_timeout=point_timeout,
                           retry_backoff=retry_backoff)
        payloads = _explore_parallel(
            points, granularity, workers, todo, store=store,
            point_timeout=point_timeout, retries=retries,
            retry_backoff=retry_backoff, on_result=on_parallel_result,
            faults=faults,
        )
        if payloads is not None:
            used_workers = workers
            for index, payload in payloads.items():
                point = points[index]
                if payload[0] == "ok":
                    makespan, per_process, wall, gen = payload[1]
                    slots[index] = PointResult(
                        point,
                        wall_seconds=wall,
                        makespan_cycles=makespan,
                        per_process_cycles=per_process,
                        generation=gen,
                    )
                else:
                    slots[index] = PointResult(point, error=payload[1])

    # Sequential path: everything parallel evaluation did not cover —
    # the workers=1 default, fork-less platforms, and the degradation
    # path for points lost to repeated pool breakage.
    for index in range(len(points)):
        if slots[index] is not None:
            continue
        result = _evaluate_sequential(points[index], granularity,
                                      store=store, faults=faults)
        slots[index] = result
        if ckpt is not None and result.ok:
            ckpt.record(
                points[index].name, result.makespan_cycles,
                result.per_process_cycles, result.wall_seconds,
            )
    for index, result in enumerate(slots):
        result.index = index
    return ExplorationResult(
        slots, time.perf_counter() - start, workers=used_workers,
        replay_stats=replay_stats,
    )


def mp3_design_points(params=None, n_frames=2, seed=7, cache_configs=None,
                      memory_model=None, branch_model=None):
    """The paper's MP3 design space as ready-made points.

    Variants SW/SW+1/SW+2/SW+4 crossed with the given cache configurations;
    area proxy = number of custom-HW units.
    """
    from .apps.mp3 import VARIANTS, build_design
    from .apps.mp3.source import VARIANT_MAPPINGS

    if cache_configs is None:
        cache_configs = ((8 * 1024, 4 * 1024),)
    points = []
    for variant in VARIANTS:
        for icache, dcache in cache_configs:
            def build(variant=variant, icache=icache, dcache=dcache):
                design, _ = build_design(
                    variant, params, n_frames=n_frames, seed=seed,
                    icache_size=icache, dcache_size=dcache,
                    memory_model=memory_model, branch_model=branch_model,
                )
                return design

            points.append(DesignPoint(
                "%s@%dk/%dk" % (variant, icache // 1024, dcache // 1024),
                build,
                area=len(VARIANT_MAPPINGS[variant]),
                meta={"variant": variant, "icache": icache, "dcache": dcache},
            ))
    return points


def mp3_platform_points(params=None, variant="SW+2", n_frames=1, seed=7,
                        icache_size=8 * 1024, dcache_size=4 * 1024,
                        bus_widths=(1, 2, 4), bus_arbitrations=(1, 2, 4),
                        cpu_mhz=(100.0, 125.0), memory_model=None,
                        branch_model=None):
    """A *platform* sweep over one MP3 mapping: bus width × bus arbitration
    latency × CPU clock, application and caches held fixed.

    This is the sweep shape the simtrace replay fast path is built for —
    every point shares one exact replay signature, so
    ``explore(points, replay="auto")`` simulates once and replays the rest
    (see docs/performance.md).
    """
    from .apps.mp3 import build_design
    from .apps.mp3.source import VARIANT_MAPPINGS

    points = []
    for width in bus_widths:
        for arbitration in bus_arbitrations:
            for mhz in cpu_mhz:
                def build(width=width, arbitration=arbitration, mhz=mhz):
                    design, _ = build_design(
                        variant, params, n_frames=n_frames, seed=seed,
                        icache_size=icache_size, dcache_size=dcache_size,
                        memory_model=memory_model,
                        branch_model=branch_model,
                    )
                    for bus in design.buses.values():
                        bus.words_per_cycle = width
                        bus.arbitration_cycles = arbitration
                    cpu = design.pes["cpu"]
                    cpu.pum = cpu.pum.with_frequency(mhz)
                    return design

                points.append(DesignPoint(
                    "%s w%d a%d %gMHz" % (variant, width, arbitration, mhz),
                    build,
                    area=len(VARIANT_MAPPINGS[variant]),
                    meta={"variant": variant, "bus_width": width,
                          "bus_arbitration": arbitration, "cpu_mhz": mhz},
                ))
    return points


def mp3_traffic_points(params=None, variant="SW+2", n_frames=1, seed=7,
                       icache_size=8 * 1024, dcache_size=4 * 1024,
                       n_instances=(1, 4, 16), arrivals="poisson",
                       mean_gap_cycles=1000.0, burst_size=8, traffic_seed=0,
                       policy="fifo", memory_model=None, branch_model=None):
    """A *traffic* sweep over one MP3 mapping: instance count under a
    seeded arrival process, platform held fixed.

    Each point simulates ``n`` decoder instances over one shared platform
    (``meta["traffic"]`` routes evaluation through
    :func:`repro.workloads.run_traffic`); ``policy`` arms every bus with a
    dynamic arbiter so instances contend with real queuing delays
    (``None`` keeps the static bus model).  Rankings then answer capacity
    questions — how much load the platform absorbs before the makespan
    knee — instead of single-run latency questions.
    """
    from .apps.mp3 import build_design
    from .apps.mp3.source import VARIANT_MAPPINGS

    points = []
    for n in n_instances:
        def build(n=n):
            design, _ = build_design(
                variant, params, n_frames=n_frames, seed=seed,
                icache_size=icache_size, dcache_size=dcache_size,
                memory_model=memory_model, branch_model=branch_model,
            )
            if policy is not None:
                for bus in design.buses.values():
                    bus.policy = policy
            return design

        points.append(DesignPoint(
            "%s x%d %s" % (variant, n, arrivals),
            build,
            area=len(VARIANT_MAPPINGS[variant]),
            meta={
                "variant": variant,
                "traffic": {
                    "n_instances": n,
                    "arrivals": arrivals,
                    "mean_gap_cycles": mean_gap_cycles,
                    "burst_size": burst_size,
                    "seed": traffic_seed,
                },
            },
        ))
    return points
