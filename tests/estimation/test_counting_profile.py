"""The static estimator's application profile comes from counting programs.

:func:`repro.estimation.profile_design` runs the counting emission of each
process's generated code (:mod:`repro.codegen.pygen`) instead of the
reference IR interpreter.  Its block counts, sends and receives must equal
the interpreter's on the case studies and on random programs, its counts
times block delays must equal the timed TLM's per-process cycles, and the
interpreter must not run unless a counting run fails — in which case the
reference run's diagnostic (or profile) is the answer.
"""

import pytest
from hypothesis import given, settings

from repro.apps.jpeg import build_jpeg_design
from repro.apps.mp3 import Mp3Params
from repro.apps.mp3.designs import build_design
from repro.artifacts import ArtifactStore
from repro.cdfg.interp import Interpreter
from repro.codegen.pygen import (
    COUNT, generate_linear_source, generate_source, program_from_source,
)
from repro.codegen.runtime import CountingContext
from repro.estimation import (
    StaticEstimateError, process_comp_cycles, profile_design,
)
from repro.estimation import staticest
from repro.pum import dct_hw, microblaze
from repro.tlm import Design, generate_tlm
from repro.tlm.generator import GENSRC_KIND, compile_process

from ..codegen.test_structured import loop_programs
from ..integration.test_iss_equivalence_properties import random_programs

SMALL = Mp3Params(n_subbands=4, n_slots=4, n_phases=4, n_alias=2)

#: A closed-form loop whose trip count is known only at run time, inside
#: another: it adds ``len(range)`` body runs and one final test per entry.
RUN_TIME_TRIPS = """
int tab[8];
int main(int n) {
  int acc = 0;
  for (int j = 0; j < 3; j++) {
    int m = (n + j) & 7;
    for (int i = 0; i < m; i++) { acc += i; tab[i & 7] = acc; }
  }
  return acc;
}
"""

#: Calls in a function's first block, before any branch: the caller must
#: still come first in the profile's function order.
FIRST_BLOCK_CALLS = """
int leaf(int v) { return v + 1; }
int mid(int v) { return leaf(v) * 2; }
int main(int n) { int a = mid(n); return leaf(a); }
"""

#: The cache configurations of the benchmark's ``sweep`` space.
SWEEP_CACHES = [(icache, dcache)
                for icache in (2048, 4096, 8192, 16384)
                for dcache in (2048, 4096)]


def reference(design, store):
    """``(counts, sends, recvs, function order)`` of the interpreter
    co-run."""
    irs, _ = staticest._frontend_ir(design, store)
    counts, logs = staticest._interpreted_run(design, irs)
    return (
        counts,
        {n: staticest._aggregate(logs[n], "send") for n in design.processes},
        {n: staticest._aggregate(logs[n], "recv") for n in design.processes},
        {n: list(per_func) for n, per_func in counts.items()},
    )


def profiled(design, store):
    """The same of the counting profile: the function order (first call
    first) makes stored profiles byte-identical to the interpreter's."""
    profile = profile_design(design, store=store)
    return (profile.counts, profile.sends, profile.recvs,
            {n: list(per_func) for n, per_func in profile.counts.items()})


def one_process(source, args=()):
    design = Design("one")
    design.add_pe("cpu", microblaze(8192, 4096))
    design.add_process("p", source, "main", "cpu", args=args)
    return design


@pytest.fixture()
def no_interpreter(monkeypatch):
    """Fail any interpreter run: the success path must not need one."""
    def refuse(self, *args):
        raise AssertionError("the reference interpreter ran")

    monkeypatch.setattr(Interpreter, "call_gen", refuse)


class TestMatchesInterpreter:
    @pytest.mark.parametrize("variant", ["SW", "SW+1", "SW+2", "SW+4"])
    def test_mp3_variants(self, variant):
        # The second seed has the same code: it binds its data into the
        # cached counting modules.
        store = ArtifactStore()
        for seed in (7, 8):
            design, _ = build_design(variant, SMALL, n_frames=1, seed=seed)
            hits = store.stats(GENSRC_KIND).hits
            assert profiled(design, store) == reference(design, store)
        assert store.stats(GENSRC_KIND).hits - hits == len(design.processes)

    def test_full_size_sw4(self):
        store = ArtifactStore()
        design, _ = build_design("SW+4", Mp3Params(), n_frames=1, seed=7)
        assert profiled(design, store) == reference(design, store)

    @pytest.mark.parametrize("offload_dct", [False, True], ids=["SW", "HW"])
    def test_jpeg_mappings(self, offload_dct):
        store = ArtifactStore()
        design = build_jpeg_design(offload_dct)
        assert profiled(design, store) == reference(design, store)

    @pytest.mark.parametrize("n", [0, 5])
    def test_run_time_trip_counts(self, n):
        self.check_program(RUN_TIME_TRIPS, (n,))

    def test_calls_in_the_first_block(self):
        self.check_program(FIRST_BLOCK_CALLS, (3,))

    @given(random_programs())
    @settings(max_examples=15, deadline=None)
    def test_random_programs(self, source):
        self.check_program(source, ())

    @given(loop_programs())
    @settings(max_examples=20, deadline=None)
    def test_loop_programs(self, program):
        source, n = program
        self.check_program(source, (n,))

    @staticmethod
    def check_program(source, args):
        design = one_process(source, args)
        store = ArtifactStore()
        expected = reference(design, store)
        assert profiled(design, store) == expected
        # The linear fallback counts the same blocks.
        ir = compile_process(design.processes["p"])
        program = program_from_source(generate_linear_source(ir, COUNT), ir,
                                      timed=COUNT)
        ctx = CountingContext()
        program.entry("main")(ctx, program.fresh_globals(), *args)
        assert program.block_counts(ctx.counts) == expected[0]["p"]


class TestTimedIdentity:
    @pytest.mark.parametrize("icache,dcache", SWEEP_CACHES)
    def test_counts_times_delays_are_tlm_cycles(self, icache, dcache):
        design, _ = build_design("SW+2", SMALL, n_frames=1, seed=5,
                                 icache_size=icache, dcache_size=dcache)
        store = ArtifactStore()
        result = generate_tlm(design, store=store).run()
        assert process_comp_cycles(design, store=store) == {
            name: proc.cycles for name, proc in result.processes.items()
        }


class TestCodeOnlyNoInterpreter:
    @pytest.mark.parametrize("variant", ["SW+2", "SW+4"])
    def test_success_path_runs_no_interpreter(self, no_interpreter,
                                              variant):
        design, _ = build_design(variant, SMALL, n_frames=1, seed=7)
        profile = profile_design(design, store=ArtifactStore())
        assert profile.total_blocks("decoder") > 0

    def test_one_module_per_code(self, no_interpreter):
        # Cache sizes and seeds change delays and data, not code: every
        # profile after the first reuses each process's counting module.
        store = ArtifactStore()
        for seed, (icache, dcache) in enumerate(SWEEP_CACHES[:3]):
            design, _ = build_design("SW+2", SMALL, n_frames=1, seed=seed,
                                     icache_size=icache, dcache_size=dcache)
            profile_design(design, store=store)
        assert store.stats(GENSRC_KIND).misses == len(design.processes)

    def test_counting_source_reads_no_delay(self):
        # Emitted from IR no annotator has seen, and charges no cycles.
        ir = compile_process(one_process(
            "int main(void) { int s = 0; "
            "for (int i = 0; i < 9; i++) s += i; return s; }"
        ).processes["p"])
        assert "wait" not in generate_source(ir, COUNT)


class TestRefusals:
    def test_failure_reports_the_reference_diagnostic(self):
        design = one_process("""
        int main(void) {
          int v[4];
          int i = 9;
          v[i] = 1;
          return 0;
        }""")
        with pytest.raises(StaticEstimateError,
                           match="'p' failed: InterpreterError: index 9"):
            profile_design(design, store=ArtifactStore())

    def test_negative_index_profiles_like_the_tlm(self):
        # The interpreter rejects v[-1]; the TLM's generated code writes
        # the last element, and the static tier stands in for the TLM.
        design = one_process("""
        int main(void) {
          int v[4];
          int i = 0 - 1;
          v[i] = 7;
          return v[3];
        }""")
        store = ArtifactStore()
        with pytest.raises(StaticEstimateError, match="InterpreterError"):
            reference(design, store)
        result = generate_tlm(design, store=store).run()
        assert result.process("p").return_value == 7
        assert process_comp_cycles(design, store=store) == {
            "p": result.process("p").cycles}

    def test_out_of_range_comm_count_profiles_like_the_tlm(self):
        # send(1, v, 6) of a 4-word array: the interpreter rejects the
        # count, the TLM sends the 4 words the slice holds.
        design = Design("overlong")
        design.add_pe("cpu", microblaze(8192, 4096))
        design.add_pe("hw", dct_hw())
        design.add_bus("bus")
        design.add_channel(1, "req", "bus")
        design.add_process("sw", """
        int main(void) {
          int v[4];
          v[3] = 5;
          send(1, v, 6);
          return 0;
        }""", "main", "cpu")
        design.add_process("acc", """
        int main(void) {
          int buf[4];
          recv(1, buf, 4);
          return buf[3];
        }""", "main", "hw")
        store = ArtifactStore()
        with pytest.raises(StaticEstimateError, match="comm count 6"):
            reference(design, store)
        profile = profile_design(design, store=store)
        assert profile.sends == {"sw": [(1, 4, 1)], "acc": []}
        assert profile.recvs == {"sw": [], "acc": [(1, 4, 1)]}
        result = generate_tlm(design, store=store).run()
        assert result.process("acc").return_value == 5
        assert process_comp_cycles(design, store=store) == {
            name: proc.cycles for name, proc in result.processes.items()
        }
