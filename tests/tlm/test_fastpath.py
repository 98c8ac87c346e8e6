"""Equivalence tests for the simulation fast path.

The optimizing code generator and the quantum granularity are pure speed
features: every combination must report the same ``makespan_cycles`` as
unoptimized code at transaction granularity.
"""

import pytest

from repro.apps.mp3 import Mp3Params, build_design
from repro.cycle import run_pcam
from repro.tlm import generate_tlm

SMALL = Mp3Params(n_subbands=4, n_slots=4, n_phases=4, n_alias=2)


def small_design(variant="SW+2"):
    design, _ = build_design(variant, SMALL, n_frames=1, seed=3)
    return design


def makespan(design, **kwargs):
    return generate_tlm(design, timed=True, **kwargs).run().makespan_cycles


class TestEngineEquivalence:
    @pytest.mark.parametrize("variant", ["SW", "SW+2"])
    def test_engines_and_optimizer_bit_identical(self, variant):
        design = small_design(variant)
        baseline = makespan(design, optimize=False)
        assert makespan(design, optimize=True) == baseline

    def test_granularities_bit_identical(self):
        design = small_design()
        reference = makespan(design, granularity="transaction")
        assert makespan(design, granularity="block") == reference
        assert makespan(design, granularity="quantum") == reference
        assert makespan(design, granularity="quantum", quantum=3) == reference
        assert makespan(design, granularity="quantum", quantum=1000) == reference

    def test_functional_results_identical_across_engines(self):
        design = small_design()
        a = generate_tlm(design, timed=False, optimize=True).run()
        b = generate_tlm(design, timed=False, optimize=False).run()
        assert (a.process("decoder").return_value
                == b.process("decoder").return_value)

    def test_bad_engine_rejected(self):
        # There is one process model; no engine can be selected.
        with pytest.raises(TypeError):
            generate_tlm(small_design(), timed=True, engine="thread")


class TestKernelStatsSurface:
    def test_tlm_result_carries_kernel_stats(self):
        result = generate_tlm(small_design(), timed=True).run()
        stats = result.kernel_stats
        assert "engine" not in stats
        assert stats["activations"] > 0
        assert stats["events_scheduled"] > 0
        assert stats["channel_fastpath_hits"] > 0

    def test_board_result_carries_kernel_stats(self):
        result = run_pcam(small_design())
        assert result.kernel_stats["activations"] > 0
        assert result.kernel_stats["events_scheduled"] > 0
