"""Table-1-shaped speed benchmark for the simulation fast path.

Times, per MP3 design variant, the four simulators of the paper's Table 1 —
functional TLM, timed TLM (optimizing code generator), ISS and PCAM.

The ``equivalence`` tests pin every estimate to the seed kernel's numbers:
timed-TLM ``makespan_cycles`` must be bit-identical across optimization
levels and sync granularities, and the ISS / PCAM cycle counts must be
unchanged by their pre-decoded dispatch loops and by running PCAM hardware
units as kernel generator processes.  CI runs exactly these via
``-k equivalence`` on a reduced workload.

The full run writes ``results/tlm_speed.txt`` plus
``results/BENCH_tlm_speed.json``.
"""

from __future__ import annotations

import time

import pytest

from repro.apps.mp3 import Mp3Params, VARIANTS, build_design
from repro.cycle import run_pcam
from repro.isa import compile_program
from repro.iss import ISS
from repro.reporting import Table, fmt_seconds
from repro.tlm import generate_tlm
from repro.tlm.generator import compile_process

EVAL_SEED = 7  # matches conftest: the goldens below were built with it
ICACHE, DCACHE = 8192, 4096
GRANULARITIES = ("transaction", "block", "quantum")

#: PCAM and ISS rows decode one frame (they dominate wall time otherwise).
PCAM_FRAMES = 1

#: Seed-kernel timed-TLM makespans (uncalibrated designs, seed 7,
#: icache 8192 / dcache 4096); identical for every granularity.
TLM_GOLDENS = {
    ("SW", 1): 3528191, ("SW+1", 1): 2636937,
    ("SW+2", 1): 2388165, ("SW+4", 1): 1248137,
    ("SW", 2): 7006846, ("SW+1", 2): 5224338,
    ("SW+2", 2): 4726794, ("SW+4", 2): 2446738,
}
ISS_GOLDENS = {1: 2281569, 2: 4533777}  # SW decoder image
PCAM_GOLDENS = {
    "SW": 2002643, "SW+1": 1623259, "SW+2": 1536145, "SW+4": 1050795,
}

_rows = {}


def _row(variant):
    return _rows.setdefault(variant, {})


def _min_wall(runner, rounds=3):
    """Best-of-N wall time of ``runner()`` (returns last result too)."""
    best = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = runner()
        best = min(best, time.perf_counter() - start)
    return best, result


@pytest.fixture(scope="module")
def design_for():
    """Uncalibrated evaluation designs, memoized per (variant, frames)."""
    cache = {}

    def get(variant, n_frames):
        key = (variant, n_frames)
        if key not in cache:
            cache[key] = build_design(
                variant, Mp3Params(), n_frames=n_frames, seed=EVAL_SEED,
                icache_size=ICACHE, dcache_size=DCACHE,
            )[0]
        return cache[key]

    return get


@pytest.fixture(scope="module")
def baseline_makespan(design_for):
    """Seed-equivalent reference: unoptimized codegen."""
    cache = {}

    def get(variant, n_frames):
        key = (variant, n_frames)
        if key not in cache:
            model = generate_tlm(
                design_for(variant, n_frames), timed=True, optimize=False,
            )
            cache[key] = model.run().makespan_cycles
        return cache[key]

    return get


# -- equivalence: the fast path changes nothing but wall time ---------------

@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("granularity", GRANULARITIES)
def test_equivalence_timed_tlm(variant, granularity, design_for,
                               baseline_makespan, eval_frames):
    reference = baseline_makespan(variant, eval_frames)
    if (variant, eval_frames) in TLM_GOLDENS:
        assert reference == TLM_GOLDENS[(variant, eval_frames)]
    model = generate_tlm(
        design_for(variant, eval_frames), timed=True,
        optimize=True, granularity=granularity,
    )
    result = model.run()
    assert result.makespan_cycles == reference


def test_equivalence_iss_cycles(design_for, eval_frames):
    decl = design_for("SW", eval_frames).processes["decoder"]
    image = compile_program(compile_process(decl), "main", ())
    iss = ISS(image, ICACHE, DCACHE)
    wall, result = _min_wall(iss.run, rounds=1)
    _row("SW")["iss"] = wall
    if eval_frames in ISS_GOLDENS:
        assert result.cycles == ISS_GOLDENS[eval_frames]
    assert result.cycles > 0


@pytest.mark.parametrize("variant", VARIANTS)
def test_equivalence_pcam_cycles(variant, design_for):
    board = run_pcam(design_for(variant, PCAM_FRAMES))
    _row(variant)["pcam"] = board.wall_seconds
    assert board.makespan_cycles == PCAM_GOLDENS[variant]


# -- wall-clock rows --------------------------------------------------------

@pytest.mark.parametrize("variant", VARIANTS)
def test_functional_tlm_wall(variant, design_for, eval_frames):
    model = generate_tlm(design_for(variant, eval_frames), timed=False)
    wall, result = _min_wall(model.run)
    _row(variant)["func"] = wall
    assert result.process("decoder").return_value is not None


@pytest.mark.parametrize("variant", VARIANTS)
def test_timed_tlm_walls(variant, design_for, baseline_makespan,
                         eval_frames):
    model = generate_tlm(design_for(variant, eval_frames), timed=True)
    wall, result = _min_wall(model.run)
    assert result.makespan_cycles == baseline_makespan(variant, eval_frames)
    row = _row(variant)
    row["timed_fast"] = wall
    row["makespan"] = result.makespan_cycles
    row["kernel_stats"] = result.kernel_stats


# -- table + metrics --------------------------------------------------------

def test_render_tlm_speed(tables, metrics, eval_frames):
    table = Table(
        ["Design", "TLM func", "TLM timed", "ISS", "PCAM"],
        title="Simulation fast path — wall-clock per simulator (MP3)",
    )
    for variant in VARIANTS:
        row = _rows.get(variant, {})
        table.add_row(
            variant,
            fmt_seconds(row.get("func", float("nan"))),
            fmt_seconds(row.get("timed_fast", float("nan"))),
            fmt_seconds(row["iss"]) if "iss" in row else "n/a",
            fmt_seconds(row.get("pcam", float("nan"))),
        )
    tables["tlm_speed"] = table.render() + (
        "\n(TLM columns decode %d frame(s); ISS/PCAM decode %d. "
        "'TLM timed' runs the optimizing codegen; its makespans are "
        "bit-identical to unoptimized code at every sync granularity.)"
        % (eval_frames, PCAM_FRAMES)
    )

    bench = {"frames": eval_frames, "pcam_frames": PCAM_FRAMES}
    for variant in VARIANTS:
        row = _rows.get(variant, {})
        for key in ("func", "timed_fast", "makespan", "iss", "pcam"):
            if key in row:
                bench["%s_%s" % (variant, key)] = row[key]
        stats = row.get("kernel_stats")
        if stats:
            bench["%s_activations" % variant] = stats["activations"]
            bench["%s_fastpath_hits" % variant] = (
                stats["channel_fastpath_hits"]
            )
    metrics["tlm_speed"] = bench
