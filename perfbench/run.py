"""Runs one benchmark workload and prints its metrics.

    python3 perfbench/run.py --workload edit --seed 1 --seconds 25 --trace 0

Run from the repository root; the benchmark imports the program from
``src/`` next to this directory.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a separate traced run.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every metric with its unit and sample count, and the digest of the
simulated statistics.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
from time import perf_counter

import common

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 9


def per_layer_metrics():
    """The per-layer metrics ``BENCHMARK.json`` lists, in output order:
    ``(name, unit)``."""
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as handle:
        return tuple((metric["name"], metric["unit"])
                     for metric in json.load(handle)["per_layer"])


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("edit", "sweep", "traffic"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="op time measured per loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(workload, op, seconds, first_index, served=False, tracer=None,
            rss=False):
    """Closed loop: ops until ``seconds`` of op wall time are spent (at
    least one op).

    Each op is timed twice: in wall time, and in the CPU time of every
    process doing the work (``workload.cpu_snapshot``), next to the host's
    speed factor probed right before it.  Input generation and the probe
    are not timed.  With a ``tracer``, every other block of
    ``workload.cycle`` ops runs traced, so traced and untraced ops see the
    same input mix and the same machine load.  Returns the outcomes and
    (with ``rss``) the high-water RSS once ``workload.fixed_ops`` ops are
    done (or at the end of a shorter run).
    """
    import tracing
    from workloads import Outcome

    outcomes = []
    busy = 0.0
    rss_mb = None
    index = first_index
    undo = None
    probe = common.SpeedProbe()
    wall_limit = perf_counter() + 2 * seconds + 10
    try:
        while not outcomes or (busy < seconds
                               and perf_counter() < wall_limit):
            traced = tracer is not None and (index // workload.cycle) % 2 == 1
            if traced and undo is None:
                undo = tracing.instrument(tracer)
            elif not traced and undo is not None:
                undo()
                undo = None
            inp = workload.make_input(index)
            scale = probe.scale()
            cpu_before = workload.cpu_snapshot()
            start = perf_counter()
            try:
                value = tracer.run_op(index, op, inp) if traced else op(inp)
                error = None
            except Exception as exc:  # a failed op is counted; the run goes on
                value, error = None, "%s: %s" % (type(exc).__name__, exc)
            elapsed = perf_counter() - start
            cpu_after = workload.cpu_snapshot()
            busy += elapsed
            cpu = sum(used - cpu_before.get(pid, 0.0)
                      for pid, used in cpu_after.items())
            outcomes.append(Outcome(index, inp, value, error, elapsed, cpu,
                                    scale, served, traced))
            if rss and len(outcomes) == workload.fixed_ops:
                rss_mb = workload.rss_mb()
            index += 1
    finally:
        if undo is not None:
            undo()
    if rss and rss_mb is None:
        rss_mb = workload.rss_mb()
    return outcomes, rss_mb


def check_all(workload, outcomes):
    """Failure messages of the ops that failed their output check."""
    return [(outcome.index, failure) for outcome, failure in
            zip(outcomes, workload.check(outcomes)) if failure is not None]


def sim_digest(workload, outcomes):
    """Digest of the simulated statistics of the first ``fixed_ops`` ops
    (their inputs depend only on the seed, whatever the op count)."""
    covered = [outcome for outcome in outcomes[:workload.fixed_ops]
               if outcome.error is None]
    return common.digest([workload.digest_item(o) for o in covered]), \
        len(covered)


def accuracy_metric(workload):
    """``tlm_error_pct`` and the grid's TLM cycles, simulated the way the
    workload's ops are (served on ``edit``), outside the timed ops."""
    import accuracy

    directory = os.path.join(common.OUT, "grid-%d" % os.getpid())
    try:
        calibration = workload.calibration or accuracy.calibrate()
        cycles = workload.grid_cycles(
            accuracy.write_grid_designs(calibration, directory))
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return accuracy.tlm_error_pct(cycles, accuracy.load_reference()), cycles


def op_percentiles(workload, outcomes, attr):
    """Median and p90 of an op's ``attr`` (a time in seconds), and how many
    ops lie beyond the p90.

    The input kinds of a workload's cycle differ in cost (by 1.6x on
    ``edit``, 30x on ``traffic``), so the median of the mixed ops can fall
    in a gap between kinds and jump with small shifts.  The median is
    therefore taken for each kind and averaged over the kinds.  The p90
    lies inside the costliest kinds and is taken over all ops, which gives
    it enough samples beyond it.
    """
    kinds = {}
    for outcome in outcomes:
        kinds.setdefault(outcome.index % workload.cycle, []).append(
            getattr(outcome, attr))
    values = [getattr(outcome, attr) for outcome in outcomes]
    p90 = common.p90(values)
    return (statistics.mean(statistics.median(times)
                            for times in kinds.values()),
            p90, common.beyond(values, p90))


def timed_run(workload, seconds, setup_times):
    outcomes, rss_mb = measure(workload, workload.op, seconds, 0,
                               served=workload.served, rss=True)
    failures = check_all(workload, outcomes)
    error_pct, grid = accuracy_metric(workload)
    n = len(outcomes)
    ref = sum(outcome.ref_seconds for outcome in outcomes)
    cpu = sum(outcome.cpu for outcome in outcomes)
    wall = sum(outcome.seconds for outcome in outcomes)
    p50, p90, beyond = op_percentiles(workload, outcomes, "ref_seconds")
    cpu_p50, cpu_p90, _ = op_percentiles(workload, outcomes, "cpu")
    wall_p50, wall_p90, _ = op_percentiles(workload, outcomes, "seconds")
    kinds = "n=%d in %d input kinds" % (n, min(n, workload.cycle))
    metrics = {
        "setup_s": (statistics.median(setup_times), "s",
                    "median of %d set-ups" % len(setup_times)),
        "ops_per_s": (n / ref, "1/s", "%d ops in %.1f s; %.1f s CPU, %.1f s "
                      "wall" % (n, ref, cpu, wall)),
        "op_p50_ms": (1e3 * p50, "ms", "%s; CPU %.1f ms, wall %.1f ms" % (
            kinds, 1e3 * cpu_p50, 1e3 * wall_p50)),
        "op_p90_ms": (1e3 * p90, "ms", "n=%d, %d beyond; CPU %.1f ms, wall "
                      "%.1f ms" % (n, beyond, 1e3 * cpu_p90, 1e3 * wall_p90)),
        "peak_rss_mb": (rss_mb, "MB", "after %d ops" % min(
            n, workload.fixed_ops)),
        "tlm_error_pct": (error_pct, "%", "%d held-out designs" % len(grid)),
    }
    ops_digest, covered = sim_digest(workload, outcomes)
    digest = {"ops": ops_digest, "ops_covered": covered,
              "grid": common.digest(sorted(grid.items()))}
    return outcomes, failures, metrics, digest


def traced_run(workload, seconds):
    """Interleaved untraced and traced ops; the per-layer metrics."""
    import tracing
    from repro.artifacts import default_store
    from repro.simkernel import sim_totals_delta, sim_totals_snapshot

    outcomes = []
    serve = {"overhead_ms": 0.0, "restarts": 0, "queue_high_water": 0}
    op = workload.op
    if workload.served:
        seconds /= 2.0
        served, _ = measure(workload, op, seconds, 0, served=True)
        outcomes += served
        overheads = [o.seconds - o.value["wall_seconds"] for o in served
                     if o.error is None and o.value.get("ok")]
        stats = workload.serve_stats()
        serve = {
            "overhead_ms": 1e3 * statistics.median(overheads)
            if overheads else 0.0,
            "restarts": stats["pool"]["restarts"],
            "queue_high_water": stats["queue"]["high_water"],
        }
        # The spans are recorded in this process, through ``cli.main``;
        # one untimed op warms it as the set-up warmed the daemon.
        op = workload.op_in_process
        outcomes += measure(workload, op, 0.0, len(outcomes))[0]

    tracer = tracing.Tracer()
    store = default_store()
    store_before = store.counters() if store is not None else {}
    sim_before = sim_totals_snapshot()
    first = len(outcomes)
    # Start on a whole traced block's boundary so both halves see the mix.
    first += -first % workload.cycle
    loop, _ = measure(workload, op, seconds, first, tracer=tracer)
    sim = sim_totals_delta(sim_before)
    store_after = store.counters() if store is not None else {}
    outcomes += loop
    failures = check_all(workload, outcomes)

    traced = [o for o in loop if o.traced]
    untraced = [o for o in loop if not o.traced]
    spans = tracer.spans()
    summary = tracing.summarize(spans)
    counts = workload.layer_counts(traced)
    metrics = layer_metrics(
        summary, tracer.counts, counts, sim, store_before, store_after,
        serve, n_traced=len(traced), n_ops=len(loop),
        overhead=_ops_per_s(untraced) / _ops_per_s(traced)
        if traced and untraced else 1.0,
    )
    table = tracing.layer_table(summary, len(traced))
    first_op = traced[0].index if traced else None
    payload = {
        "workload": workload.name,
        "traced_ops": len(traced),
        "untraced_ops": len(untraced),
        "summary": summary,
        "counters": {"tracer": dict(tracer.counts), "ops": dict(counts),
                     "simulation": sim, "artifacts_before": store_before,
                     "artifacts_after": store_after, "serve": serve},
        "first_op_spans": [span for span in spans if span[4] == first_op],
        "metrics": {name: value for name, (value, _, _) in metrics.items()},
    }
    return outcomes, failures, metrics, payload, table


def _ops_per_s(outcomes):
    return len(outcomes) / sum(o.ref_seconds for o in outcomes)


def _ms_per_op(seconds, n_ops):
    return 1e3 * seconds / n_ops if n_ops else 0.0


def _pct(part, whole):
    return 100.0 * part / whole if whole else 0.0


def _hit_pct(before, after, kind):
    hits = after.get(kind, {}).get("hits", 0) \
        - before.get(kind, {}).get("hits", 0)
    misses = after.get(kind, {}).get("misses", 0) \
        - before.get(kind, {}).get("misses", 0)
    return _pct(hits, hits + misses)


def layer_metrics(summary, traced_counts, op_counts, sim, store_before,
                  store_after, serve, n_traced, n_ops, overhead):
    """Every per-layer metric: ``{name: (value, unit, note)}``.

    Span times and the counters the ops returned are per traced op
    (``n_traced``); the process-wide simulation and artifact-store
    counters cover every op of the interleaved loop (``n_ops``).
    """
    spans = summary["spans"]

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    def own(*names):
        return sum(spans.get(name, {}).get("self_s", 0.0) for name in names)

    kernel_under_traffic = sum(
        entry["total_s"] for path, entry in summary["tree"].items()
        if "/traffic.run/" in path and path.endswith("/simkernel.run"))
    lookups = sum(after.get("hits", 0) + after.get("misses", 0)
                  - store_before.get(kind, {}).get("hits", 0)
                  - store_before.get(kind, {}).get("misses", 0)
                  for kind, after in store_after.items())
    values = {
        "serve.overhead_ms": serve["overhead_ms"],
        "serve.restarts": serve["restarts"],
        "serve.queue_high_water": serve["queue_high_water"],
        "estimation.annotate_ms": _ms_per_op(total("estimation.annotate"),
                                             n_traced),
        "estimation.static_ms": _ms_per_op(
            own("estimation.profile", "estimation.comp_cycles"), n_traced),
        "estimation.sched_hit_pct": _hit_pct(store_before, store_after,
                                             "sched"),
        "tlm.run_ms": _ms_per_op(total("tlm.run"), n_traced),
        "tlm.sim_mcycles_per_s": traced_counts["tlm.sim_cycles"]
        / total("tlm.run") / 1e6 if total("tlm.run") else 0.0,
        "artifacts.lookups": lookups / n_ops if n_ops else 0.0,
        "artifacts.entries": sum(kind["entries"]
                                 for kind in store_after.values()),
        "search.static_ms": _ms_per_op(op_counts["search.static_s"], n_traced),
        "search.approx_rung_ms": _ms_per_op(op_counts["search.approx_s"],
                                            n_traced),
        "search.exact_ms": _ms_per_op(op_counts["search.exact_s"], n_traced),
        "search.simulated_pct": _pct(op_counts["search.simulated"],
                                     op_counts["search.space_points"]),
        "simtrace.capture_ms": _ms_per_op(total("simtrace.capture"), n_traced),
        "simtrace.replayed_pct": _pct(op_counts["simtrace.replayed"],
                                      op_counts["simtrace.points"]),
        "simtrace.fallbacks": op_counts["simtrace.fallbacks"] / n_traced
        if n_traced else 0.0,
        "simkernel.events": sim["events_scheduled"] / n_ops if n_ops else 0.0,
        "simkernel.us_per_event": 1e6 * sim["wall_seconds"]
        / sim["events_scheduled"] if sim["events_scheduled"] else 0.0,
        "simkernel.wheel_pct": _pct(traced_counts["simkernel.wheel_events"],
                                    traced_counts["simkernel.traced_events"]),
        "traffic.kernel_ms": _ms_per_op(kernel_under_traffic, n_traced),
        "traffic_replay.replayed_pct": _pct(op_counts["traffic.replayed"],
                                            op_counts["traffic.points"]),
        "traffic_replay.flagged_f1": _pct(op_counts["traffic.flagged_f1"],
                                          op_counts["traffic.points"]),
        "traffic_replay.flagged_f2": _pct(op_counts["traffic.flagged_f2"],
                                          op_counts["traffic.points"]),
        "contention.stall_cycles": op_counts["contention.stall_cycles"]
        / n_traced if n_traced else 0.0,
        "contention.queued_pct": _pct(op_counts["contention.queued"],
                                      op_counts["contention.grants"]),
        "trace.ops": n_traced,
        "trace.overhead_pct": 100.0 * (overhead - 1.0),
        "trace.coverage_pct": 100.0 * summary["coverage"],
    }
    listed = per_layer_metrics()
    for name, _ in listed:
        layer, _, what = name.partition(".")
        if what == "self_ms":
            values[name] = _ms_per_op(
                summary["layer_self_s"].get(layer, 0.0), n_traced)
        elif layer == "artifacts" and what.endswith(".hit_pct"):
            values[name] = _hit_pct(store_before, store_after,
                                    what[:-len(".hit_pct")])
    note = "%d traced of %d ops" % (n_traced, n_ops)
    return {name: (float(values[name]), unit, note)
            for name, unit in listed}


def report(metrics, attempted, failures, extra_lines):
    for name, (value, unit, note) in metrics.items():
        print("%-30s %14.4f %-10s (%s)" % (name, value, unit, note))
    for line in extra_lines:
        print(line)
    for index, failure in failures[:10]:
        print("failed op %d: %s" % (index, failure))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))


def main(argv=None):
    args = parse_args(argv)
    if not common.have_program():
        print("error: no program sources under %s" % common.SRC,
              file=sys.stderr)
        return 2
    os.makedirs(common.OUT, exist_ok=True)
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    try:
        # Each set-up, and then the ops, start from a collected heap, so
        # none pays for the garbage an earlier set-up left behind.
        probe = common.SpeedProbe()
        setup_times = []
        for _ in range(SETUP_REPEATS):
            gc.collect()
            scale = probe.scale()
            before = common.cpu_seconds()
            workload.setup()
            setup_times.append(scale * (common.cpu_seconds() - before
                                        + workload.started_cpu_seconds()))
        gc.collect()
        if args.trace:
            outcomes, failures, metrics, payload, table = traced_run(
                workload, args.seconds)
            path = os.path.join(common.OUT, "trace-%s-%d.json"
                                % (args.workload, args.seed))
            with open(path, "w") as handle:
                json.dump(payload, handle, indent=1, sort_keys=True)
            extra = [table, "trace written to %s" % os.path.relpath(path)]
        else:
            outcomes, failures, metrics, digest = timed_run(
                workload, args.seconds, setup_times)
            extra = ["digest: " + json.dumps(digest, sort_keys=True)]
    finally:
        workload.close()
    report(metrics, len(outcomes), failures, extra)
    return 0


if __name__ == "__main__":
    sys.exit(main())
