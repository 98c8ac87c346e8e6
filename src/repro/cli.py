"""Command-line interface.

Usage (after ``pip install -e .``)::

    python -m repro estimate app.cmini --pum microblaze --icache 8192
    python -m repro run app.cmini --entry main --timed
    python -m repro disasm app.cmini
    python -m repro pum microblaze
    python -m repro explore --workers 4 --frames 1
    python -m repro calibrate --small --cache-config 8192:4096
    python -m repro simulate design.json --kernel-stats

Subcommands:

``estimate``
    Annotate every basic block with its Algorithm-2 delay on the chosen PUM
    and print the annotated CDFG plus a per-function summary
    (``--cache-stats`` reports the schedule-cache counters).
``explore``
    Sweep the MP3 design space (mappings × cache configurations) with
    generated timed TLMs and print the ranking; ``--workers N`` evaluates
    points on a process pool, ``--report`` prints per-stage generation
    seconds and artifact-cache hit/miss counters (sequential or pooled).
``calibrate``
    Measure cache hit rates and branch misprediction on the MP3 training
    workload and print the calibrated ``MemoryModel``/``BranchModel``.
    The default trace-once/evaluate-many fast path performs a single
    reference run for any number of cache configs (``--no-trace-cache``
    forces per-config replay, ``--workers N`` fans the replays out).
``run``
    Execute a program: reference interpreter by default, or the generated
    timed code (``--timed``) which also reports the cycle estimate.  The
    entry must not reach ``send``/``recv`` (simulate a design for that).
``disasm``
    Compile to the R32 ISA and print the disassembly.
``pum``
    Print a preset PUM (or one loaded from JSON) as JSON.
``tlm`` / ``simulate``
    Generate and run a TLM from a design JSON file.  ``--granularity``/
    ``--quantum`` control wait batching, ``--kernel-stats`` prints the
    scheduler counters, and ``--gen-stats`` prints the generation
    pipeline's per-stage seconds and artifact-cache counters.
    ``--faults scenario.json`` injects a deterministic fault scenario;
    ``--max-wall-seconds`` / ``--max-cycles`` / ``--max-stalled`` arm the
    kernel watchdog (see docs/robustness.md).
    ``--traffic N`` spawns N instances of the design over one shared
    platform under a seeded arrival process and reports per-instance
    latency percentiles plus bus-contention counters.

Structured failures (malformed PUM / scenario / checkpoint files, watchdog
aborts, deadlocks) exit non-zero with a one-line message instead of a raw
traceback.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .api import compile_cmini
from .cdfg.printer import format_function
from .errors import InputError
from .estimation.annotator import annotate_ir_program
from .pum import PUMError, dct_hw, filtercore_hw, imdct_hw, load_pum, microblaze, pum_to_json, superscalar2

PUM_PRESETS = {
    "microblaze": microblaze,
    "dct-hw": dct_hw,
    "filtercore-hw": filtercore_hw,
    "imdct-hw": imdct_hw,
    "superscalar2": superscalar2,
}


def _resolve_pum(args):
    if getattr(args, "pum_json", None):
        return load_pum(args.pum_json)
    factory = PUM_PRESETS[args.pum]
    if args.pum == "microblaze":
        return factory(icache_size=args.icache, dcache_size=args.dcache)
    return factory()


def _add_pum_options(parser):
    parser.add_argument(
        "--pum", choices=sorted(PUM_PRESETS), default="microblaze",
        help="PUM preset to target (default: microblaze)",
    )
    parser.add_argument(
        "--pum-json", metavar="PATH",
        help="load the PUM from a JSON file instead of a preset",
    )
    parser.add_argument("--icache", type=int, default=8 * 1024,
                        help="i-cache size in bytes (microblaze preset)")
    parser.add_argument("--dcache", type=int, default=4 * 1024,
                        help="d-cache size in bytes (microblaze preset)")


def cmd_estimate(args, out):
    with open(args.source) as handle:
        source = handle.read()
    ir = compile_cmini(source)
    pum = _resolve_pum(args)
    report = annotate_ir_program(ir, pum)
    out.write("Annotated for %s in %.3f s (%d functions, %d blocks, "
              "%d ops)\n\n" % (pum.name, report.seconds, report.n_functions,
                               report.n_blocks, report.n_ops))
    for name in sorted(ir.functions):
        func = ir.function(name)
        total = sum(b.delay for b in func.blocks)
        out.write("%s: sum of static block delays = %d cycles\n"
                  % (name, total))
        if args.verbose:
            out.write(format_function(func) + "\n")
        out.write("\n")
    if args.cache_stats:
        _write_cache_stats(out)
    return 0


def _write_cache_stats(out):
    from .estimation.schedcache import default_cache, save_default_cache

    cache = default_cache()
    if cache is None:
        out.write("schedule cache: disabled (REPRO_SCHED_CACHE=0)\n")
        return
    stats = cache.stats
    out.write(
        "schedule cache: %d hits, %d misses, %d entries (%.0f%% hit rate)\n"
        % (stats.hits, stats.misses, len(cache), 100.0 * stats.hit_rate)
    )
    saved = save_default_cache()
    if saved:
        out.write("schedule cache: saved to %s\n" % saved)


def _write_generation_stages(out, stage_seconds, stage_hits, stage_misses,
                             label="generation"):
    """Per-stage artifact-pipeline lines (shared by explore and simulate)."""
    from .tlm.generator import STAGES

    for stage in STAGES:
        hits = stage_hits.get(stage, 0)
        misses = stage_misses.get(stage, 0)
        lookups = hits + misses
        out.write(
            "  %-10s %8.3f s  %4d hits  %4d misses  (%3.0f%% hit rate)\n"
            % (stage, stage_seconds.get(stage, 0.0), hits, misses,
               100.0 * hits / lookups if lookups else 0.0)
        )
    out.write("  %-10s %8.3f s\n"
              % ("total", sum(stage_seconds.values())))


def _refuse_communicating_entry(ir, entry):
    """``run`` and ``profile`` execute one process with no channels, so an
    entry that can reach ``send``/``recv`` is refused before it runs."""
    from .codegen.pygen import suspending_functions

    if entry in suspending_functions(ir):
        raise InputError(
            "%s() can reach send/recv; a single program has no channels "
            "(simulate a design instead)" % entry
        )


def cmd_run(args, out):
    with open(args.source) as handle:
        source = handle.read()
    ir = compile_cmini(source)
    _refuse_communicating_entry(ir, args.entry)
    entry_args = tuple(int(a) for a in args.args)
    if args.timed:
        from .codegen import ProcessContext, generate_program

        pum = _resolve_pum(args)
        annotate_ir_program(ir, pum)
        generated = generate_program(ir, timed=True)
        ctx = ProcessContext(name=args.entry)
        value = generated.entry(args.entry)(
            ctx, generated.fresh_globals(), *entry_args
        )
        out.write("%s(%s) = %r\n" % (
            args.entry, ", ".join(map(str, entry_args)), value,
        ))
        out.write("Estimated %d cycles on %s (%.2f us at %.0f MHz)\n" % (
            ctx.total_cycles, pum.name,
            ctx.total_cycles / pum.frequency_mhz, pum.frequency_mhz,
        ))
    else:
        from .cdfg.interp import Interpreter

        value = Interpreter(ir).call(args.entry, *entry_args)
        out.write("%s(%s) = %r\n" % (
            args.entry, ", ".join(map(str, entry_args)), value,
        ))
    return 0


def cmd_disasm(args, out):
    from .isa import compile_program

    with open(args.source) as handle:
        source = handle.read()
    ir = compile_cmini(source)
    entry_args = tuple(int(a) for a in args.args)
    image = compile_program(ir, args.entry, entry_args)
    out.write("%r\n\n" % image)
    out.write(image.disassemble() + "\n")
    return 0


def cmd_profile(args, out):
    from .estimation import profile_program

    with open(args.source) as handle:
        source = handle.read()
    ir = compile_cmini(source)
    _refuse_communicating_entry(ir, args.entry)
    pum = _resolve_pum(args)
    entry_args = tuple(int(a) for a in args.args)
    profile = profile_program(ir, pum, entry=args.entry, args=entry_args)
    out.write(profile.render(top=args.top) + "\n")
    return 0


def cmd_tlm(args, out):
    from .tlm import generate_tlm, load_design

    design = load_design(args.design)
    scenario = None
    if args.faults:
        from .faults import load_scenario

        scenario = load_scenario(args.faults)
    if args.traffic:
        return _run_traffic_cli(args, out, design, scenario)
    model = generate_tlm(
        design, timed=not args.functional, granularity=args.granularity,
        quantum=args.quantum,
    )
    watchdog = _build_watchdog(args, model.reference_cycle_ns)
    result = model.run(faults=scenario, watchdog=watchdog)
    out.write("Design %r (%s TLM): makespan %d cycles, simulated in %.3f s\n"
              % (design.name, "functional" if args.functional else "timed",
                 result.makespan_cycles, result.wall_seconds))
    for name in sorted(result.processes):
        process = result.processes[name]
        out.write(
            "  %-16s on %-12s %10d cycles  %4d transactions  -> %r\n" % (
                process.name, process.pe_name, process.cycles,
                process.transactions, process.return_value,
            )
        )
    if scenario is not None:
        _write_fault_stats(out, scenario, result.fault_stats)
    if result.bus_stats:
        _write_bus_stats(out, result.bus_stats)
    if args.kernel_stats:
        _write_kernel_stats(out, result.kernel_stats)
    if args.gen_stats:
        report = model.report
        out.write("generation stages (artifact pipeline):\n")
        _write_generation_stages(
            out, report.stage_seconds, report.stage_hits,
            report.stage_misses,
        )
    return 0


def _run_traffic_cli(args, out, design, scenario):
    """The ``simulate --traffic N`` path: N instances, one platform."""
    from .workloads import TrafficSpec, run_traffic

    spec = TrafficSpec(
        args.traffic, arrivals=args.traffic_arrivals,
        mean_gap_cycles=args.traffic_gap, burst_size=args.traffic_burst,
        seed=args.traffic_seed,
    )
    # Traffic runs use the TLModel reference cycle; the watchdog's
    # --max-cycles bound is converted with the same constant.
    from .tlm.model import REFERENCE_CYCLE_NS

    result = run_traffic(
        design, spec, granularity=args.granularity, quantum=args.quantum,
        faults=scenario, watchdog=_build_watchdog(args, REFERENCE_CYCLE_NS),
    )
    summary = result.latency_summary()
    out.write(
        "Design %r: %d instances (%s arrivals, seed %d): makespan %d "
        "cycles, simulated in %.3f s\n" % (
            design.name, result.n_instances, spec.arrivals, spec.seed,
            result.makespan_cycles, result.wall_seconds,
        )
    )
    out.write(
        "latency cycles: min %d  p50 %d  p90 %d  p99 %d  max %d  "
        "(mean %.0f)\n" % (
            summary["min"], summary["p50"], summary["p90"], summary["p99"],
            summary["max"], summary["mean"],
        )
    )
    if scenario is not None:
        _write_fault_stats(out, scenario, result.fault_stats)
    if result.bus_stats:
        _write_bus_stats(out, result.bus_stats)
    if args.kernel_stats:
        _write_kernel_stats(out, result.kernel_stats)
    return 0


def _build_watchdog(args, reference_cycle_ns):
    """A :class:`~repro.simkernel.Watchdog` from CLI flags, or ``None``."""
    if not (args.max_wall_seconds or args.max_cycles or args.max_stalled):
        return None
    from .simkernel import Watchdog

    return Watchdog(
        max_wall_seconds=args.max_wall_seconds,
        max_sim_time=(
            args.max_cycles * reference_cycle_ns if args.max_cycles else None
        ),
        max_stalled_activations=args.max_stalled,
    )


def _write_fault_stats(out, scenario, stats):
    out.write(
        "faults: scenario %r (seed %d): %d events — "
        "%d corrupted, %d dropped, %d delayed transactions; "
        "%d stalls, %d crashes, %d halts\n" % (
            scenario.name, scenario.seed, stats.get("total_events", 0),
            stats.get("corrupted_transactions", 0),
            stats.get("dropped_transactions", 0),
            stats.get("delayed_transactions", 0),
            stats.get("stalls", 0), stats.get("crashes", 0),
            stats.get("halts", 0),
        )
    )


def _write_kernel_stats(out, stats):
    out.write(
        "kernel: %d activations, %d events scheduled, %d channel "
        "fast-path hits, %d buckets drained\n" % (
            stats.get("activations", 0),
            stats.get("events_scheduled", 0),
            stats.get("channel_fastpath_hits", 0),
            stats.get("buckets_drained", 0),
        )
    )


def _write_bus_stats(out, bus_stats):
    for name in sorted(bus_stats):
        stats = bus_stats[name]
        out.write(
            "bus %-12s policy=%-8s %8d grants (%d queued)  "
            "%10d stall cycles  utilization %.3f\n" % (
                name, stats.get("policy", "?"), stats.get("grants", 0),
                stats.get("queued_grants", 0), stats.get("stall_cycles", 0),
                stats.get("utilization", 0.0),
            )
        )


def _parse_cache_configs(specs):
    configs = []
    for spec in specs:
        try:
            icache, dcache = spec.split(":")
            configs.append((int(icache), int(dcache)))
        except ValueError:
            raise SystemExit(
                "bad --cache-config %r (expected I:D in bytes, e.g. 8192:4096)"
                % spec
            )
    return tuple(configs)


def _write_ranking(out, ranked, top_k, name_width=18):
    """The shared explore/search ranking table, truncated to ``top_k``
    rows when set (huge sweeps should not dump every point)."""
    shown = ranked if top_k is None else ranked[:max(0, top_k)]
    if top_k is not None and len(shown) < len(ranked):
        out.write("Top %d of %d ranked points:\n" % (len(shown), len(ranked)))
    width = name_width
    if shown:
        width = max(name_width, *(len(r.point.name) for r in shown))
    out.write("%-4s %-*s %14s %9s\n"
              % ("rank", width, "design point", "est. cycles", "HW units"))
    for rank, point_result in enumerate(shown, start=1):
        out.write("%-4d %-*s %14d %9d\n" % (
            rank, width, point_result.point.name,
            point_result.makespan_cycles, point_result.point.area,
        ))


def cmd_explore(args, out):
    from .apps.mp3 import Mp3Params
    from .explore import explore, mp3_design_points, mp3_platform_points

    params = (
        Mp3Params(n_subbands=4, n_slots=4, n_phases=4, n_alias=2)
        if args.small else Mp3Params()
    )
    cache_configs = (
        _parse_cache_configs(args.cache_config)
        if args.cache_config else ((8 * 1024, 4 * 1024),)
    )
    if args.sweep == "platform":
        points = mp3_platform_points(
            params, variant=args.variant, n_frames=args.frames,
            seed=args.seed, icache_size=cache_configs[0][0],
            dcache_size=cache_configs[0][1],
        )
    elif args.sweep == "traffic":
        from .explore import mp3_traffic_points

        points = mp3_traffic_points(
            params, variant=args.variant, n_frames=args.frames,
            seed=args.seed, icache_size=cache_configs[0][0],
            dcache_size=cache_configs[0][1],
            n_instances=_parse_value_list(
                args.traffic_instances, int, "--traffic-instances",
            ),
        )
    else:
        points = mp3_design_points(
            params, n_frames=args.frames, seed=args.seed,
            cache_configs=cache_configs,
        )
    result = explore(
        points, workers=args.workers, point_timeout=args.point_timeout,
        retries=args.retries, checkpoint=args.checkpoint,
        replay=args.replay,
    )
    restored = sum(1 for r in result.results if r.cached)
    out.write(
        "Explored %d design points in %.2f s (workers=%d%s)\n\n"
        % (len(result), result.total_seconds, result.workers,
           ", %d restored from checkpoint" % restored if restored else "")
    )
    if result.replay_stats is not None:
        stats = result.replay_stats
        out.write(
            "Replay fast path (%s): %d traces captured, %d reused; "
            "%d replayed (%d exact, %d approx), %d simulated\n\n"
            % (stats["mode"], stats["traces_captured"],
               stats["traces_reused"],
               stats["replayed_exact"] + stats["replayed_approx"],
               stats["replayed_exact"], stats["replayed_approx"],
               stats["simulated"])
        )
        if stats.get("traffic_points"):
            out.write(
                "Traffic replay tier: %d points, %d replayed, "
                "%d simulated (%d flagged), %d validated\n\n"
                % (stats["traffic_points"],
                   stats.get("traffic_replayed", 0),
                   stats.get("traffic_simulated", 0),
                   stats.get("traffic_flagged", 0),
                   stats.get("traffic_validated", 0))
            )
    _write_ranking(out, result.ranked(), args.top_k)
    failures = result.failures
    if failures:
        out.write("\nFailed points:\n")
        for point_result in failures:
            out.write("  %-18s %s\n"
                      % (point_result.point.name, point_result.error))
    front = result.pareto_front()
    out.write("\nPareto front (cycles vs HW units): %s\n"
              % " / ".join(r.point.name for r in front))
    if args.report:
        summary = result.generation_summary()
        out.write(
            "\nGeneration report (%d points, artifact pipeline):\n"
            % summary["points"]
        )
        _write_generation_stages(
            out, summary["stage_seconds"], summary["stage_hits"],
            summary["stage_misses"],
        )
        if result.replay_stats is not None:
            stats = result.replay_stats
            out.write("\nSim-trace replay report:\n")
            for label, key in (
                ("traces captured", "traces_captured"),
                ("traces reused", "traces_reused"),
                ("replayed exact", "replayed_exact"),
                ("replayed approx", "replayed_approx"),
                ("kernel simulations", "simulated"),
                ("validated vs kernel", "validated"),
                ("group fallbacks", "fallbacks"),
                ("vectorized evaluations", "vectorized"),
                ("scalar evaluations", "scalar"),
            ):
                out.write("  %-24s %6d\n" % (label, stats[key]))
            if stats.get("traffic_points"):
                for label, key in (
                    ("traffic points", "traffic_points"),
                    ("traffic replayed", "traffic_replayed"),
                    ("traffic simulated", "traffic_simulated"),
                    ("traffic flagged", "traffic_flagged"),
                    ("traffic validated", "traffic_validated"),
                    ("traffic fallbacks", "traffic_fallbacks"),
                ):
                    out.write("  %-24s %6d\n" % (label, stats.get(key, 0)))
    if args.cache_stats:
        _write_cache_stats(out)
    return 0 if not failures else 4


def _parse_value_list(text, convert, flag):
    try:
        values = tuple(convert(part) for part in text.split(",") if part)
    except ValueError:
        values = ()
    if not values:
        raise SystemExit(
            "bad %s %r (expected a comma-separated list)" % (flag, text)
        )
    return values


def _search_space_from_args(args):
    from .apps.mp3 import Mp3Params
    from .search import mp3_product_space

    params = (
        Mp3Params(n_subbands=4, n_slots=4, n_phases=4, n_alias=2)
        if args.small else Mp3Params()
    )
    return mp3_product_space(
        params,
        variants=_parse_value_list(args.variants, str, "--variants"),
        n_frames=args.frames, seed=args.seed,
        icache_sizes=_parse_value_list(args.icache, int, "--icache"),
        dcache_sizes=_parse_value_list(args.dcache, int, "--dcache"),
        bus_widths=_parse_value_list(args.bus_widths, int, "--bus-widths"),
        bus_arbitrations=_parse_value_list(
            args.bus_arbitrations, int, "--bus-arbitrations",
        ),
        cpu_mhz=_parse_value_list(args.cpu_mhz, float, "--cpu-mhz"),
        traffic=(
            _parse_value_list(args.traffic, int, "--traffic")
            if args.traffic else ()
        ),
    )


def cmd_search(args, out):
    from .search import merge_shard_results, parse_shard, search

    space = _search_space_from_args(args)
    shard = parse_shard(args.shard) if args.shard else None

    if args.merge:
        merged = merge_shard_results(
            space, args.merge, output=args.checkpoint,
        )
        evaluated = [r for r in merged.results if r.ok]
        out.write(
            "Merged %d shard checkpoints: %d of %d points evaluated\n\n"
            % (len(args.merge), len(evaluated), len(space))
        )
        _write_ranking(out, merged.ranked(), args.top_k)
        front = merged.pareto_front()
        out.write("\nPareto front (cycles vs HW units): %s\n"
                  % " / ".join(r.point.name for r in front))
        if args.checkpoint:
            out.write("Merged checkpoint written to %s\n" % args.checkpoint)
        return 0

    result = search(
        space, stages=args.stages, keep_top=args.keep_top,
        rung_fraction=args.rung_fraction, budget=args.budget,
        shard=shard, workers=args.workers, checkpoint=args.checkpoint,
        point_timeout=args.point_timeout,
    )
    report = result.report
    out.write(
        "Search space: %d points (%d axes)%s\n"
        % (len(space), len(space.axes),
           ", shard %d/%d" % shard if shard else "")
    )
    out.write("%-12s %8s %8s %8s %10s\n"
              % ("stage", "entered", "kept", "pruned", "seconds"))
    for stats in report.stages:
        out.write("%-12s %8d %8d %8d %9.2fs\n" % (
            stats.name, stats.entered, stats.kept, stats.pruned,
            stats.seconds,
        ))
    out.write(
        "Evaluated %d points with the exact tier in %.2f s\n\n"
        % (len(result), result.exploration.total_seconds)
    )
    _write_ranking(out, result.ranked(), args.top_k)
    failures = result.failures
    if failures:
        out.write("\nFailed points:\n")
        for point_result in failures:
            out.write("  %s %s\n"
                      % (point_result.point.name, point_result.error))
    front = result.pareto_front()
    out.write("\nPareto front (cycles vs HW units): %s\n"
              % " / ".join(r.point.name for r in front))
    if args.report:
        out.write("\nSearch report:\n")
        for stats in report.stages:
            out.write("  stage %-12s prune rate %5.1f%%\n"
                      % (stats.name, 100.0 * stats.prune_rate))
            for key, value in sorted(stats.counters.items()):
                if key == "artifacts":
                    for kind, delta in sorted(value.items()):
                        out.write(
                            "    %-22s hits=%d misses=%d stored=%d\n"
                            % (kind, delta["hits"], delta["misses"],
                               delta["stored"])
                        )
                elif not isinstance(value, dict):
                    out.write("    %-22s %s\n" % (key, value))
    if args.cache_stats:
        _write_cache_stats(out)
    return 0 if not failures else 4


def cmd_calibrate(args, out):
    import time

    from .apps.mp3 import Mp3Params, build_design
    from .calibration import calibrate_pum
    from .pum import PAPER_CACHE_CONFIGS, microblaze

    params = (
        Mp3Params(n_subbands=4, n_slots=4, n_phases=4, n_alias=2)
        if args.small else Mp3Params()
    )
    cache_configs = (
        _parse_cache_configs(args.cache_config)
        if args.cache_config else PAPER_CACHE_CONFIGS
    )

    def make_design(icache, dcache):
        design, _ = build_design(
            args.variant, params, n_frames=args.frames, seed=args.seed,
            icache_size=icache, dcache_size=dcache,
        )
        return design

    wall_start = time.perf_counter()
    result = calibrate_pum(
        microblaze(), make_design, cache_configs,
        trace_cache=args.trace_cache, workers=args.workers,
    )
    wall = time.perf_counter() - wall_start
    out.write(
        "Calibrated %r on %d cache configs in %.2f s "
        "(%d reference run%s, %s)\n\n" % (
            args.variant, len(cache_configs), wall, result.reference_runs,
            "" if result.reference_runs == 1 else "s",
            "traced fast path" if result.traced else "per-config replay",
        )
    )
    out.write("%-8s %-8s %12s %12s %12s\n"
              % ("icache", "dcache", "i hit rate", "d hit rate", "br miss"))
    for (isize, dsize) in cache_configs:
        stats = result.measurements[(isize, dsize)]
        out.write("%-8d %-8d %12.4f %12.4f %12.4f\n" % (
            isize, dsize, stats.get("icache_hit_rate", 0.0),
            stats.get("dcache_hit_rate", 0.0),
            stats.get("branch_miss_rate", 0.0),
        ))
    out.write("\nMemoryModel (ext_latency=%d):\n"
              % result.memory_model.ext_latency)
    for which, table in (("i", result.memory_model.icache),
                         ("d", result.memory_model.dcache)):
        for size in sorted(table):
            out.write("  %s %6d B: hit rate %.4f\n"
                      % (which, size, table[size].hit_rate))
    if result.branch_model is not None:
        out.write("BranchModel: policy=%s penalty=%d miss_rate=%.4f\n" % (
            result.branch_model.policy, result.branch_model.penalty,
            result.branch_model.miss_rate,
        ))
    return 0


def _register_all_artifact_kinds():
    """Import every subsystem that registers artifact kinds, so a store
    scan can validate their entries (unknown kinds are skipped)."""
    from .estimation import schedcache, staticest  # noqa: F401
    from .simtrace import trace  # noqa: F401
    from .tlm import generator  # noqa: F401


def cmd_artifacts(args, out):
    from .artifacts import default_store, verify_store

    directory = args.dir or os.environ.get("REPRO_ARTIFACTS_DIR")
    if not directory:
        out.write("error: no artifact directory (pass --dir or set "
                  "REPRO_ARTIFACTS_DIR)\n")
        return 2
    if args.action == "verify":
        _register_all_artifact_kinds()
        report = verify_store(directory, quarantine=not args.no_quarantine)
        out.write("Scanned %d entries under %s: %d ok, %d bad\n"
                  % (report.scanned, directory, report.ok, len(report.bad)))
        for path, reason in report.bad:
            out.write("  bad  %-44s %s\n" % (path, reason))
        for path in report.quarantined:
            out.write("  quarantined -> %s\n"
                      % os.path.join("quarantine", path))
        if report.unknown_kinds:
            out.write("  skipped unregistered kinds: %s\n"
                      % ", ".join(report.unknown_kinds))
        return 4 if report.bad else 0
    # action == "stats"
    from .artifacts import disk_stats, kind_spec

    _register_all_artifact_kinds()
    summaries, unknown = disk_stats(directory)
    if summaries:
        out.write("On-disk store %s:\n" % directory)
        for kind, summary in sorted(summaries.items()):
            out.write(
                "  %-16s v%-3d %6d entries  %4d stale  %4d corrupt\n"
                % (kind, kind_spec(kind).version, summary["entries"],
                   summary["stale"], summary["corrupt"]),
            )
        if unknown:
            out.write("  unregistered kinds skipped: %s\n"
                      % ", ".join(unknown))
    else:
        out.write("On-disk store %s: empty\n" % directory)
    store = default_store()
    if store is None:
        return 0
    counters = store.counters()
    if not counters:
        out.write("This process: no kinds touched\n")
        return 0
    out.write("This process:\n")
    for kind, entry in sorted(counters.items()):
        out.write(
            "  %-16s v%-3d %6d entries  %6d hits  %6d misses  "
            "%4d corrupt  %4d stale\n"
            % (kind, kind_spec(kind).version, entry["entries"],
               entry["hits"], entry["misses"], entry["corrupt"],
               entry["stale"]),
        )
    return 0


def cmd_pum(args, out):
    if args.name.endswith(".json"):
        pum = load_pum(args.name)
    else:
        try:
            pum = PUM_PRESETS[args.name]()
        except KeyError:
            out.write("unknown PUM preset %r (choose from %s)\n"
                      % (args.name, ", ".join(sorted(PUM_PRESETS))))
            return 2
    out.write(pum_to_json(pum) + "\n")
    return 0


def cmd_serve(args, out):
    from .serve import ServeDaemon, run_daemon

    if not args.socket and args.http is None:
        out.write("error: serve needs --socket PATH and/or --http PORT\n")
        return 2
    daemon = ServeDaemon(
        socket_path=args.socket,
        http_port=args.http,
        workers=args.workers,
        queue_size=args.queue_size,
        deadline=args.deadline,
        crash_retries=args.crash_retries,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
        restart_backoff=args.restart_backoff,
        drain_timeout=args.drain_timeout,
    )
    return run_daemon(daemon, out)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Cycle-approximate retargetable performance estimation "
                    "at the transaction level (DATE 2008 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="annotate a program's basic "
                                            "blocks with delay estimates")
    p_est.add_argument("source", help="CMini source file")
    p_est.add_argument("-v", "--verbose", action="store_true",
                       help="print the annotated CDFG")
    p_est.add_argument("--cache-stats", action="store_true",
                       help="print schedule-cache hit/miss/entry counters")
    _add_pum_options(p_est)
    p_est.set_defaults(func=cmd_estimate)

    p_exp = sub.add_parser("explore", help="sweep the MP3 design space with "
                                           "timed TLMs and rank the points")
    p_exp.add_argument("--workers", type=int, default=1, metavar="N",
                       help="evaluate points on an N-process pool "
                            "(default: 1 = sequential)")
    p_exp.add_argument("--frames", type=int, default=1,
                       help="MP3 frames decoded per point (default: 1)")
    p_exp.add_argument("--seed", type=int, default=7,
                       help="workload seed (default: 7)")
    p_exp.add_argument("--cache-config", action="append", metavar="I:D",
                       help="i-cache:d-cache sizes in bytes; repeatable "
                            "(default: 8192:4096)")
    p_exp.add_argument("--small", action="store_true",
                       help="use a reduced MP3 parameter set (fast smoke)")
    p_exp.add_argument("--cache-stats", action="store_true",
                       help="print schedule-cache hit/miss/entry counters")
    p_exp.add_argument("--report", action="store_true",
                       help="print per-stage TLM-generation seconds and "
                            "artifact-cache hit/miss counters (works for "
                            "any --workers value)")
    p_exp.add_argument("--checkpoint", metavar="PATH",
                       help="persist completed points to PATH and resume "
                            "from it (atomic JSON; see docs/robustness.md)")
    p_exp.add_argument("--point-timeout", type=float, default=None,
                       metavar="SECS",
                       help="per-point wall-clock bound for pooled "
                            "evaluation; stuck points are reported as "
                            "failed instead of wedging the sweep")
    p_exp.add_argument("--retries", type=int, default=2, metavar="N",
                       help="pool rebuilds tolerated after worker crashes "
                            "before degrading to sequential (default: 2)")
    p_exp.add_argument("--sweep", choices=("mapping", "platform", "traffic"),
                       default="mapping",
                       help="design space: 'mapping' crosses HW/SW variants "
                            "(default), 'platform' sweeps bus width/"
                            "arbitration and CPU clock on one variant, "
                            "'traffic' sweeps instance count under bus "
                            "contention on one variant")
    p_exp.add_argument("--variant", default="SW+2",
                       help="MP3 mapping variant for --sweep platform/"
                            "traffic (default: SW+2)")
    p_exp.add_argument("--traffic-instances", default="1,4,16",
                       metavar="N,N,...",
                       help="instance-count axis for --sweep traffic "
                            "(default: 1,4,16)")
    p_exp.add_argument("--replay", choices=("off", "auto", "approx"),
                       default="off",
                       help="sim-trace fast path: trace one point per "
                            "replay group and analytically replay the rest "
                            "(see docs/performance.md; default: off)")
    p_exp.add_argument("--top-k", type=int, default=None, metavar="K",
                       help="print only the K best-ranked points "
                            "(default: all)")
    p_exp.set_defaults(func=cmd_explore)

    p_srch = sub.add_parser(
        "search",
        help="staged design-space search over an MP3 platform/PUM product "
             "space: static prune, successive-halving promotion, Pareto "
             "refinement (see docs/performance.md)",
    )
    p_srch.add_argument("--small", action="store_true",
                        help="use a reduced MP3 parameter set (fast smoke)")
    p_srch.add_argument("--frames", type=int, default=1,
                        help="MP3 frames decoded per point (default: 1)")
    p_srch.add_argument("--seed", type=int, default=7,
                        help="workload seed (default: 7)")
    p_srch.add_argument("--variants", default="SW+2", metavar="V,V,...",
                        help="MP3 mapping variants axis (default: SW+2)")
    p_srch.add_argument("--icache", default="8192", metavar="B,B,...",
                        help="i-cache size axis in bytes (default: 8192)")
    p_srch.add_argument("--dcache", default="4096", metavar="B,B,...",
                        help="d-cache size axis in bytes (default: 4096)")
    p_srch.add_argument("--bus-widths", default="1,2,4", metavar="W,W,...",
                        help="bus words-per-cycle axis (default: 1,2,4)")
    p_srch.add_argument("--bus-arbitrations", default="1,2,4",
                        metavar="C,C,...",
                        help="bus arbitration-cycles axis (default: 1,2,4)")
    p_srch.add_argument("--cpu-mhz", default="100", metavar="F,F,...",
                        help="CPU clock axis in MHz (default: 100)")
    p_srch.add_argument("--traffic", default=None, metavar="N,N,...",
                        help="traffic instance-count axis: those points "
                             "rank by loaded makespan under bus contention "
                             "(default: no traffic axis)")
    p_srch.add_argument("--stages", default="012",
                        help="which optional stages run: any combination "
                             "of 0 (static prune), 1 (approx rung), "
                             "2 (Pareto refinement); the exact finalist "
                             "evaluation always runs (default: 012)")
    p_srch.add_argument("--keep-top", type=int, default=16, metavar="K",
                        help="every cut keeps at least K points "
                             "(default: 16)")
    p_srch.add_argument("--rung-fraction", type=float, default=0.05,
                        metavar="F",
                        help="every cut keeps at least this fraction of "
                             "its input (default: 0.05)")
    p_srch.add_argument("--budget", type=int, default=0, metavar="N",
                        help="stage-2 refinement budget in extra evaluated "
                             "points (default: 0 = refinement disabled)")
    p_srch.add_argument("--shard", default=None, metavar="i/N",
                        help="evaluate only the deterministic content-hash "
                             "shard i of N (run shards as independent "
                             "processes, then merge with --merge)")
    p_srch.add_argument("--merge", nargs="+", default=None, metavar="PATH",
                        help="instead of searching, union these shard "
                             "checkpoint files into one ranked result "
                             "(with --checkpoint PATH, also write the "
                             "merged checkpoint)")
    p_srch.add_argument("--workers", type=int, default=1, metavar="N",
                        help="worker pool width for simulation stages "
                             "(default: 1)")
    p_srch.add_argument("--checkpoint", metavar="PATH",
                        help="persist exact-tier results to PATH (atomic "
                             "JSON, resumable; approx scores never land "
                             "here)")
    p_srch.add_argument("--point-timeout", type=float, default=None,
                        metavar="SECS",
                        help="per-point wall-clock bound for pooled "
                             "evaluation")
    p_srch.add_argument("--top-k", type=int, default=10, metavar="K",
                        help="print only the K best-ranked points "
                             "(default: 10)")
    p_srch.add_argument("--report", action="store_true",
                        help="print per-stage prune rates, replay counters "
                             "and artifact-cache deltas")
    p_srch.add_argument("--cache-stats", action="store_true",
                        help="print schedule-cache hit/miss/entry counters")
    p_srch.set_defaults(func=cmd_search)

    p_run = sub.add_parser("run", help="execute a program")
    p_run.add_argument("source", help="CMini source file")
    p_run.add_argument("--entry", default="main", help="entry function")
    p_run.add_argument("--timed", action="store_true",
                       help="run the generated timed code and report cycles")
    p_run.add_argument("args", nargs="*", default=(),
                       help="integer arguments for the entry function")
    _add_pum_options(p_run)
    p_run.set_defaults(func=cmd_run)

    p_dis = sub.add_parser("disasm", help="compile to R32 and disassemble")
    p_dis.add_argument("source", help="CMini source file")
    p_dis.add_argument("--entry", default="main", help="entry function")
    p_dis.add_argument("args", nargs="*", default=(),
                       help="integer arguments for the entry function")
    p_dis.set_defaults(func=cmd_disasm)

    p_prof = sub.add_parser("profile", help="estimated-cycle profile "
                                            "(hotspot report)")
    p_prof.add_argument("source", help="CMini source file")
    p_prof.add_argument("--entry", default="main", help="entry function")
    p_prof.add_argument("--top", type=int, default=8,
                        help="number of hottest blocks to show")
    p_prof.add_argument("args", nargs="*", default=(),
                        help="integer arguments for the entry function")
    _add_pum_options(p_prof)
    p_prof.set_defaults(func=cmd_profile)

    p_cal = sub.add_parser("calibrate",
                           help="calibrate the microblaze PUM's statistical "
                                "models on the MP3 training workload")
    p_cal.add_argument("--variant", default="SW",
                       help="MP3 mapping variant to train on (default: SW)")
    p_cal.add_argument("--frames", type=int, default=1,
                       help="MP3 frames in the training run (default: 1)")
    p_cal.add_argument("--seed", type=int, default=99,
                       help="training workload seed (default: 99)")
    p_cal.add_argument("--small", action="store_true",
                       help="use a reduced MP3 parameter set (fast smoke)")
    p_cal.add_argument("--cache-config", action="append", metavar="I:D",
                       help="i-cache:d-cache sizes in bytes; repeatable "
                            "(default: the paper's five configurations)")
    p_cal.add_argument("--trace-cache", default=True,
                       action=argparse.BooleanOptionalAction,
                       help="trace-once/evaluate-many fast path (one traced "
                            "reference run answers every config; "
                            "--no-trace-cache forces per-config replay)")
    p_cal.add_argument("--workers", type=int, default=1, metavar="N",
                       help="fork-pool width for per-config reference runs "
                            "(replay path only; default: 1 = sequential)")
    p_cal.set_defaults(func=cmd_calibrate)

    p_pum = sub.add_parser("pum", help="print a PUM preset (or JSON file) "
                                       "as JSON")
    p_pum.add_argument("name", help="preset name or .json path")
    p_pum.set_defaults(func=cmd_pum)

    p_art = sub.add_parser("artifacts",
                           help="inspect or verify the on-disk artifact "
                                "store (see docs/robustness.md)")
    p_art.add_argument("action", choices=("verify", "stats"),
                       help="'verify' scans every disk entry and "
                            "quarantines corrupt/stale files; 'stats' "
                            "prints this process's store counters")
    p_art.add_argument("--dir", metavar="PATH",
                       help="store root (default: $REPRO_ARTIFACTS_DIR)")
    p_art.add_argument("--no-quarantine", action="store_true",
                       help="report bad entries without moving them")
    p_art.set_defaults(func=cmd_artifacts)

    p_srv = sub.add_parser(
        "serve",
        help="run the estimation-as-a-service daemon: a warm artifact "
             "store and a supervised worker pool behind a unix socket "
             "and/or localhost HTTP (see docs/robustness.md)",
    )
    p_srv.add_argument("--socket", metavar="PATH",
                       help="unix socket path (newline-delimited JSON)")
    p_srv.add_argument("--http", metavar="PORT", type=int,
                       help="also serve HTTP on 127.0.0.1:PORT "
                            "(GET /healthz, GET /stats, POST /rpc)")
    p_srv.add_argument("--workers", type=int, default=2, metavar="N",
                       help="resident worker processes (default: 2)")
    p_srv.add_argument("--queue-size", type=int, default=16, metavar="N",
                       help="bounded request queue: requests past this "
                            "high-water mark get 'overloaded' replies "
                            "(default: 16)")
    p_srv.add_argument("--deadline", type=float, default=None,
                       metavar="SECS",
                       help="default per-request deadline; overrun "
                            "requests abort with a wall-clock-exceeded "
                            "error (requests may set their own)")
    p_srv.add_argument("--crash-retries", type=int, default=2, metavar="N",
                       help="times a request lost to a worker crash is "
                            "retried on a fresh worker (default: 2)")
    p_srv.add_argument("--breaker-threshold", type=int, default=5,
                       metavar="N",
                       help="consecutive serve-level failures of one "
                            "request kind that open its circuit breaker "
                            "(default: 5)")
    p_srv.add_argument("--breaker-cooldown", type=float, default=30.0,
                       metavar="SECS",
                       help="seconds an open breaker waits before "
                            "half-opening a trial request (default: 30)")
    p_srv.add_argument("--restart-backoff", type=float, default=0.1,
                       metavar="SECS",
                       help="base of the jittered exponential backoff "
                            "between worker restarts (default: 0.1)")
    p_srv.add_argument("--drain-timeout", type=float, default=30.0,
                       metavar="SECS",
                       help="graceful-shutdown budget for in-flight "
                            "requests on SIGTERM/SIGINT (default: 30)")
    p_srv.set_defaults(func=cmd_serve)

    p_tlm = sub.add_parser("tlm", aliases=["simulate"],
                           help="generate and simulate a TLM from a "
                                "design JSON file")
    p_tlm.add_argument("design", help="design .json (see repro.tlm.serialize)")
    p_tlm.add_argument("--functional", action="store_true",
                       help="untimed functional TLM (no annotation)")
    p_tlm.add_argument("--granularity",
                       choices=["transaction", "block", "quantum"],
                       default="transaction",
                       help="when accumulated waits hit the kernel "
                            "(default: transaction)")
    p_tlm.add_argument("--quantum", type=int, default=None, metavar="N",
                       help="waits coalesced per kernel event under "
                            "--granularity quantum")
    p_tlm.add_argument("--traffic", type=int, default=0, metavar="N",
                       help="traffic mode: spawn N instances of the design "
                            "over one shared platform and report latency "
                            "percentiles (see docs/performance.md)")
    p_tlm.add_argument("--traffic-arrivals", choices=["poisson", "bursty"],
                       default="poisson",
                       help="arrival process for --traffic (default: "
                            "poisson)")
    p_tlm.add_argument("--traffic-gap", type=float, default=1000.0,
                       metavar="CYCLES",
                       help="mean inter-arrival (or inter-burst) gap in "
                            "reference cycles (default: 1000)")
    p_tlm.add_argument("--traffic-burst", type=int, default=8, metavar="N",
                       help="arrivals per burst for --traffic-arrivals "
                            "bursty (default: 8)")
    p_tlm.add_argument("--traffic-seed", type=int, default=0,
                       help="arrival-process seed; one seed => identical "
                            "per-instance latencies, forever (default: 0)")
    p_tlm.add_argument("--kernel-stats", action="store_true",
                       help="print scheduler activation/event counters")
    p_tlm.add_argument("--gen-stats", action="store_true",
                       help="print per-stage TLM-generation seconds and "
                            "artifact-cache hit/miss counters")
    p_tlm.add_argument("--faults", metavar="PATH",
                       help="inject the fault scenario from a JSON file "
                            "and report per-fault counters")
    p_tlm.add_argument("--max-wall-seconds", type=float, default=None,
                       metavar="SECS",
                       help="watchdog: abort the simulation after this "
                            "much real time")
    p_tlm.add_argument("--max-cycles", type=int, default=None, metavar="N",
                       help="watchdog: abort when simulated time passes "
                            "N reference cycles")
    p_tlm.add_argument("--max-stalled", type=int, default=None, metavar="N",
                       help="watchdog: abort after N process activations "
                            "with no simulated-time progress (livelock)")
    p_tlm.set_defaults(func=cmd_tlm)

    return parser


@functools.lru_cache(maxsize=1)
def _parser():
    """The process's one argument parser.  A served worker answers every
    request through :func:`main`; building the parser per call costs
    milliseconds.  Parsing leaves the parser unchanged, and every default
    it hands out is immutable, so no request sees another's state."""
    return build_parser()


def main(argv=None, out=None):
    out = out or sys.stdout
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    server, argv = _extract_server(argv)
    if server is not None:
        from .client import run_via_server

        return run_via_server(server, argv, out)
    args = _parser().parse_args(argv)
    # Importing the subsystems registers their ReproError subclasses, so
    # the single taxonomy-driven except clause below covers them all
    # (see repro.errors for the code/exit-code conventions).
    from . import errors
    from .cdfg import interp as _interp  # noqa: F401
    from .cycle import caches as _caches  # noqa: F401
    from .estimation import staticest as _staticest  # noqa: F401
    from .faults import scenario as _scenario  # noqa: F401
    from .simkernel import kernel as _kernel  # noqa: F401
    from .trace import stream as _stream  # noqa: F401

    try:
        return args.func(args, out)
    except errors.ReproError as exc:
        out.write(errors.format_cli_error(exc))
        return exc.exit_code


def _extract_server(argv):
    """Split a ``--server ADDR`` option out of ``argv`` (any position).

    Returns ``(address | None, remaining_argv)``.  Handled before argparse
    so every subcommand gains the flag uniformly and the forwarded argv is
    exactly what a one-shot invocation would have parsed.
    """
    server = None
    remaining = []
    it = iter(argv)
    for token in it:
        if token == "--server":
            server = next(it, None)
            if server is None:
                raise SystemExit("--server requires an address")
        elif token.startswith("--server="):
            server = token.split("=", 1)[1]
        else:
            remaining.append(token)
    return server, remaining


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
