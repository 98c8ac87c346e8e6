"""Table 1 — Scalability: annotation and simulation time per design.

Paper's Table 1 reports, for SW / SW+1 / SW+2 / SW+4:

* timing-annotation time (seconds),
* functional-TLM simulation time,
* timed-TLM simulation time,
* PCAM simulation time (hours on the paper's machine),

and, in the text, an ISS time (3.2 h) for the SW design.  The expected
*shape*: annotation grows with the number of HW PEs but stays small; timed
TLM simulates at functional-TLM speed; ISS is orders of magnitude slower
than the TLM; PCAM is slower still.
"""

from __future__ import annotations

import pytest

from repro.apps.mp3 import VARIANTS
from repro.cycle import run_pcam
from repro.estimation.schedcache import default_cache
from repro.isa import compile_program
from repro.iss import ISS
from repro.reporting import Table, fmt_seconds
from repro.tlm import generate_tlm
from repro.tlm.generator import compile_process

#: PCAM (clock-stepped) runs decode a single frame: RTL-speed simulation of
#: more would dominate the whole benchmark suite, exactly as in the paper.
PCAM_FRAMES = 1

_rows = {}


def _row(variant):
    return _rows.setdefault(variant, {})


def _min_seconds(benchmark, fallback):
    """Most stable wall-time reading: the benchmark's min over rounds."""
    try:
        return benchmark.stats.stats.min
    except AttributeError:  # pragma: no cover - benchmark internals moved
        return fallback


def _forget_schedules():
    """Drop every memoised block schedule, so a round annotates cold."""
    cache = default_cache()
    if cache is not None:
        cache.clear()


@pytest.mark.parametrize("variant", VARIANTS)
def test_annotation_time(benchmark, variant, eval_design_factory):
    """A cold generation: no artifact store and no schedule memo, so every
    round parses, annotates and generates each process."""
    design = eval_design_factory(variant, 8192, 4096)

    def annotate():
        return generate_tlm(design, timed=True, store=False)

    model = benchmark.pedantic(annotate, setup=_forget_schedules, rounds=3,
                               iterations=1)
    _row(variant)["anno"] = _min_seconds(benchmark, model.report.total_seconds)
    assert model.report.annotation_seconds > 0


@pytest.mark.parametrize("variant", VARIANTS)
def test_functional_tlm_sim_time(benchmark, variant, eval_design_factory):
    model = generate_tlm(eval_design_factory(variant, 8192, 4096), timed=False)
    result = benchmark.pedantic(model.run, rounds=3, iterations=1)
    _row(variant)["func"] = _min_seconds(benchmark, result.wall_seconds)
    assert result.process("decoder").return_value is not None


@pytest.mark.parametrize("variant", VARIANTS)
def test_timed_tlm_sim_time(benchmark, variant, eval_design_factory):
    model = generate_tlm(eval_design_factory(variant, 8192, 4096), timed=True)
    result = benchmark.pedantic(model.run, rounds=3, iterations=1)
    _row(variant)["timed"] = _min_seconds(benchmark, result.wall_seconds)
    _row(variant)["timed_cycles"] = result.makespan_cycles
    assert result.makespan_cycles > 0


@pytest.mark.parametrize("variant", VARIANTS)
def test_pcam_sim_time(benchmark, variant, eval_design_factory):
    design = eval_design_factory(
        variant, 8192, 4096, calibrated=False, n_frames=PCAM_FRAMES
    )

    def run():
        return run_pcam(design, cache_schedules=False)

    board = benchmark.pedantic(run, rounds=1, iterations=1)
    _row(variant)["pcam"] = _min_seconds(benchmark, board.wall_seconds)
    assert board.makespan_cycles > 0


def test_iss_sim_time_sw_only(benchmark, eval_design_factory):
    """The paper could run its ISS only for the pure-SW design (no fast
    cycle-accurate C models existed for the custom HW) — same here."""
    design = eval_design_factory("SW", 8192, 4096, calibrated=False)
    decl = design.processes["decoder"]
    image = compile_program(compile_process(decl), "main", ())
    iss = ISS(image, 8192, 4096)
    result = benchmark.pedantic(iss.run, rounds=1, iterations=1)
    _row("SW")["iss"] = _min_seconds(benchmark, result.wall_seconds)
    assert result.cycles > 0


def test_render_table1(benchmark, tables, eval_frames):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    table = Table(
        ["Design", "Anno.", "TLM func", "TLM timed", "ISS", "PCAM"],
        title="Table 1 — Scalability: annotation and simulation time",
    )
    for variant in VARIANTS:
        row = _rows.get(variant, {})
        table.add_row(
            variant,
            fmt_seconds(row.get("anno", float("nan"))),
            fmt_seconds(row.get("func", float("nan"))),
            fmt_seconds(row.get("timed", float("nan"))),
            fmt_seconds(row["iss"]) if "iss" in row else "n/a",
            fmt_seconds(row.get("pcam", float("nan"))),
        )
    tables["table1_scalability"] = table.render() + (
        "\n(PCAM decodes %d frame(s); others decode the full evaluation "
        "workload.)" % PCAM_FRAMES
    )

    # Shape assertions from the paper:
    sw = _rows["SW"]
    # timed TLM within ~5x of the functional TLM (paper: both sub-second);
    assert sw["timed"] < 5 * max(sw["func"], 1e-4) + 0.05
    # ISS several times slower than the timed TLM (the paper's gap is ~4
    # orders of magnitude because its TLM is gcc-compiled native code; here
    # both sides run on CPython, which compresses the ratio);
    assert sw["iss"] > 2.5 * sw["timed"]
    # PCAM slower than the timed TLM by a large factor per decoded frame
    # (the PCAM column covers fewer frames than the TLM columns).
    pcam_per_frame = sw["pcam"] / PCAM_FRAMES
    timed_per_frame = sw["timed"] / eval_frames
    assert pcam_per_frame > 10 * timed_per_frame
