"""Ablation B — operation scheduling policy (paper Section 4.1).

The PUM's execution model names a scheduling policy (ASAP, ALAP, List).
This ablation runs the estimation engine over the DCT kernel and the MP3
FilterCore with each policy on the custom-HW datapath, reporting the
estimated block delays and the annotation cost — the trade-off the paper
alludes to ("the more detailed the PE model, the longer the delay
computation time"; custom HW's policy makes annotation slower).
"""

from __future__ import annotations

import pytest

from repro.api import compile_cmini
from repro.apps import dct_source
from repro.apps.mp3 import Mp3Params, build_sources
from repro.estimation import annotate_ir_program
from repro.pum import filtercore_hw
from repro.pum.model import PUM, ExecutionModel
from repro.reporting import Table

POLICIES = ("asap", "alap", "list")

_results = {}


def _with_policy(pum, policy):
    return PUM(
        pum.name,
        ExecutionModel(policy, pum.execution.op_mappings),
        pum.units,
        pum.pipelines,
        branch=pum.branch,
        memory=pum.memory,
        icache_size=pum.icache_size,
        dcache_size=pum.dcache_size,
        frequency_mhz=pum.frequency_mhz,
    )


@pytest.fixture(scope="module")
def workloads():
    cpu_src, _, _ = build_sources("SW", Mp3Params(), n_frames=1, seed=1)
    return {
        "dct": compile_cmini(dct_source(n_blocks=1)),
        "mp3": compile_cmini(cpu_src),
    }


@pytest.mark.parametrize("policy", POLICIES)
def test_annotation_with_policy(benchmark, policy, workloads):
    pum = _with_policy(filtercore_hw(), policy)

    def annotate():
        reports = {}
        for name, ir in workloads.items():
            reports[name] = annotate_ir_program(ir, pum)
        return reports

    reports = benchmark(annotate)
    totals = {}
    for name, ir in workloads.items():
        totals[name] = sum(
            b.delay for f in ir.functions.values() for b in f.blocks
        )
    _results[policy] = {
        "totals": totals,
        "seconds": sum(r.seconds for r in reports.values()),
    }
    assert all(v > 0 for v in totals.values())


def test_render_ablation_policy(benchmark, tables):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    table = Table(
        ["policy", "DCT Σ delays", "MP3 Σ delays", "annotation s"],
        title="Ablation B — scheduling policy on the FilterCore-HW datapath",
    )
    for policy in POLICIES:
        row = _results[policy]
        table.add_row(
            policy,
            row["totals"]["dct"],
            row["totals"]["mp3"],
            "%.3f" % row["seconds"],
        )
    tables["ablationB_policy"] = table.render()

    # All policies produce valid (positive) schedules; the priority-driven
    # List schedule is never worse than ASAP by more than the Graham bound.
    for name in ("dct", "mp3"):
        asap = _results["asap"]["totals"][name]
        lst = _results["list"]["totals"][name]
        assert lst <= 2 * asap
