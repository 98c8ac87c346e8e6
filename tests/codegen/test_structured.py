"""Differential tests of the structured code generator.

The structured emission (:func:`repro.codegen.pygen.generate_source`), the
linear emission (:func:`~repro.codegen.pygen.generate_linear_source`, one
dispatch arm and one statement per IR op) and the reference IR
:class:`~repro.cdfg.interp.Interpreter` must agree on every program:
return values and globals, and — timed, as a one-process TLM at every
sync granularity — total cycles, transactions and the recorded sync
segments.  The random programs stress what the structured form relies on:
counted-loop recognition, interval facts and closed-form delays.
"""

import contextlib
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import annotate_program, compile_cmini
from repro.apps.mp3 import Mp3Params, build_design
from repro.artifacts import ArtifactStore
from repro.cdfg.interp import Interpreter
from repro.codegen import ProcessContext, program_from_source
from repro.codegen.pygen import generate_linear_source, generate_source
from repro.pum import microblaze
from repro.simkernel import TraceRecorder
from repro.tlm import Design, generate_tlm
from repro.tlm.generator import linear_emission

INT_MAX = 2147483647
WRAP_MARK = "4294967295"  # the mask of the emitted 32-bit wrap

CMPS = ("<", "<=", ">", ">=")

CONTINUE_IN_RANGE = """
int tab[8];
int main(int n) {
  int acc = 0;
  for (int i = 0; i < 9; i++) {
    if ((i & 1) != 0) { if (i > n) continue; acc += i; }
    tab[i & 7] += acc;
  }
  return acc;
}
"""

#: Index expressions that leave ``int`` on the way and wrap back into
#: ``tab``'s bounds; the emitted code must keep their wraps.
NEAR_LIMIT_INDEXES = (
    "(%(v)s & 7) + 2147483647 + 2147483647 + 2",
    "(%(v)s & 7) - 2147483647 - 2147483647 - 2",
    "(%(v)s & 7) * 65536 * 65536 + (%(v)s & 7)",
    "((%(v)s & 7) + 2147483647) + 1 - 2147483647 - 1",
)


@st.composite
def loop_statement(draw, var, level):
    """One loop over ``var`` (or, at the top level, over the parameter
    ``n``): a ``for``/``while``/``do`` with any counted comparison,
    direction and step, and a literal, parameter, folded global, stored
    global or local bound (or one at the ``int`` limit).  A loop may start
    from whatever value ``var`` holds; nested, it then starts where its
    previous run ended."""
    if level == 0 and draw(st.integers(min_value=0, max_value=4)) == 0:
        var = "n"
    kind = draw(st.sampled_from(["for", "for", "while", "do"]))
    cmp = draw(st.sampled_from(CMPS))
    step = draw(st.sampled_from([1, 2]))
    up = cmp in ("<", "<=")
    sign = "+" if up else "-"
    # n bounds other loops, so a loop over n stays clear of the int limit
    bound_kind = draw(st.sampled_from(
        ["lit", "param", "folded", "global", "local", "local", "edge"]
        if var != "n" else ["lit", "folded", "global", "local"]))
    # keep: no store of the start value before the loop (a nested loop
    # then resumes where its last run ended)
    keep = bound_kind != "edge" and draw(
        st.sampled_from([False, True, True] if level else [False, True]))
    lim = "lim%d" % level
    pre = []
    if bound_kind == "edge":
        # Starts 20 steps from the int limit; `<= INT_MAX` (or `>=
        # INT_MIN`) never ends by its test, so a guard breaks out.
        slack = draw(st.integers(min_value=0, max_value=1))
        start = INT_MAX - 20 if up else -INT_MAX - 1 + 20
        bound = str(INT_MAX - slack) if up else "(-2147483647 - %d)" % (
            1 - slack)
    else:
        start = draw(st.integers(min_value=-6, max_value=3) if up
                     else st.integers(min_value=4, max_value=14))
        if draw(st.booleans()):
            start = "(n & 3) + %d" % start  # a start known only at run time
        bound = {
            "lit": str(draw(st.integers(min_value=-4, max_value=12))),
            "param": "n",
            "folded": "GB",
            "global": "gs",
            "local": lim,
        }[bound_kind]
        if bound_kind == "local":
            pre.append("%s = %s%d;" % (
                lim, draw(st.sampled_from(["", "(n & 7) + "])),
                draw(st.integers(min_value=-4, max_value=8))))
    # A plain body is one path: the loop may charge its delay in closed
    # form.
    plain = bound_kind != "edge" and draw(st.booleans())
    body = []
    index = draw(st.sampled_from(NEAR_LIMIT_INDEXES)) % {"v": var}
    body.append("tab[%s] += %s + %d;" % (
        index, var, draw(st.integers(min_value=-3, max_value=3))))
    body.append("acc = acc * %d + %s;" % (
        draw(st.integers(min_value=-3, max_value=5)), var))
    if bound_kind == "edge" or not plain and draw(st.booleans()):
        body.append("guard += 1; if (guard > 48) break;")
    if not plain and draw(st.booleans()):
        body.append("if (acc > %d) break;" % draw(
            st.integers(min_value=-50, max_value=400)))
    if not plain and draw(st.booleans()):
        # the induction variable stored in the body (still monotone)
        body.append("if ((acc & 3) == 1) %s = %s %s %d;" % (
            var, var, sign, step))
    if bound_kind in ("local", "global") and not plain and draw(
            st.booleans()):
        # the bound stored in the body, moving towards the exit
        target = lim if bound_kind == "local" else "gs"
        body.append("%s = %s %s 1;" % (target, target, "-" if up else "+"))
    tail = []
    if level == 0 and draw(st.booleans()):
        tail.append(draw(loop_statement("j", 1)))
    if not plain and draw(st.booleans()):
        tail.append("if ((%s & 3) == 2) continue;" % var)
        tail.append("acc += 5;")
    if not plain and draw(st.booleans()):
        # a continue that is not the last statement of its construct
        tail.append("if ((%s & 3) != 0) { if ((acc & 1) == 0) continue; "
                    "acc += 3; } acc += 7;" % var)
    update = "%s = %s %s %d;" % (var, var, sign, step)
    head = "%s %s %s" % (var, cmp, bound)
    init = "" if keep else "%s = %s" % (var, start)
    if kind == "for":
        loop = "for (%s; %s; %s) { %s }" % (
            init, head, update[:-1], " ".join(body + tail))
    elif kind == "while":
        loop = "while (%s) { %s %s %s }" % (
            head, " ".join(body), update, " ".join(tail))
    else:
        loop = "do { %s %s %s } while (%s);" % (
            " ".join(body), update, " ".join(tail), head)
    if init and kind != "for":
        loop = "%s; %s" % (init, loop)
    after = ["acc += %s;" % var] if draw(
        st.sampled_from([False, False, True] if level else [False, True])
    ) else []
    if bound_kind == "edge":
        # later loops may start from var's value: bring it back near 0
        after.append("%s = %s & 7;" % (var, var))
    return " ".join(pre + [loop] + after)


@st.composite
def loop_programs(draw):
    """``main(n)``: one or two top-level loops (each possibly nesting a
    second), plus the argument ``n``."""
    loops = draw(st.lists(loop_statement("i", 0), min_size=1, max_size=2))
    source = """
    const int GB = %d;
    int gs;
    int tab[8];
    int main(int n) {
      int i; int j; int lim0; int lim1; int guard; int acc = 1;
      gs = %d;
      %s
      return acc + tab[3];
    }
    """ % (
        draw(st.integers(min_value=-4, max_value=12)),
        draw(st.integers(min_value=-4, max_value=12)),
        "\n      ".join(loops),
    )
    return source, draw(st.integers(min_value=-4, max_value=12))


def call_standalone(generated, *args):
    ctx = ProcessContext()
    glob = generated.fresh_globals()
    value = generated.entry("main")(ctx, glob, *args)
    return value, glob, ctx.total_cycles


def tlm_outcome(source, n, granularity, linear):
    design = Design("structured-%s" % granularity)
    design.add_pe("cpu", microblaze())
    design.add_process("main", source, "main", "cpu", args=(n,))
    with linear_emission() if linear else contextlib.nullcontext():
        model = generate_tlm(design, timed=True, granularity=granularity,
                             quantum=3, store=False)
    recorder = TraceRecorder()
    result = model.run(record=recorder)
    process = result.process("main")
    return (process.cycles, process.transactions, process.return_value,
            recorder.ops.get("main"))


def function_source(source, name):
    start = source.index("def f_%s(" % name)
    end = source.find("\ndef ", start + 1)
    return source[start:] if end < 0 else source[start:end]


class TestRandomLoops:
    @given(loop_programs())
    @settings(max_examples=60, deadline=None)
    def test_emissions_match_interpreter(self, program):
        source, n = program
        ir = compile_cmini(source)
        interp = Interpreter(ir)
        expected = interp.call("main", n)
        for emit in (generate_source, generate_linear_source):
            value, glob, _ = call_standalone(
                program_from_source(emit(ir, timed=False), ir), n)
            assert value == expected
            assert glob == interp.globals

    @given(loop_programs())
    @settings(max_examples=40, deadline=None)
    def test_timed_emissions_agree(self, program):
        self.check_timed(program)

    def test_continue_inside_a_range_loop_charges_the_step(self):
        # The step block's delay is charged before Python's `continue`.
        self.check_timed((CONTINUE_IN_RANGE, 4))

    @staticmethod
    def check_timed(program):
        source, n = program
        ir = compile_cmini(source)
        annotate_program(ir, microblaze())
        interp = Interpreter(ir)
        expected = interp.call("main", n)
        executed = sum(
            count * ir.function(func).blocks[label].delay
            for (func, label), count in interp.block_counts.items()
        )
        value, _, cycles = call_standalone(
            program_from_source(generate_source(ir), ir, timed=True), n)
        assert (value, cycles) == (expected, executed)
        for granularity in ("transaction", "block", "quantum"):
            structured = tlm_outcome(source, n, granularity, False)
            linear = tlm_outcome(source, n, granularity, True)
            assert structured == linear
            assert structured[0] == executed


class TestShape:
    @pytest.fixture(scope="class")
    def decoder_source(self):
        design, _ = build_design(
            "SW", Mp3Params(n_subbands=8, n_slots=4, n_phases=4, n_alias=2),
            n_frames=1, seed=3)
        model = generate_tlm(design, timed=True, store=False)
        return model.programs["decoder"][0].source

    @pytest.mark.parametrize("name", ["filter_granule", "imdct_granule"])
    def test_hot_functions_are_plain_loops(self, decoder_source, name):
        body = function_source(decoder_source, name)
        assert "bb = " not in body
        assert "for v_" in body and " in range(" in body
        assert WRAP_MARK not in body  # no wrap on any range variable
        for line in body.splitlines():
            if "glob[" in line:  # only the entry's array hoists read glob
                assert re.fullmatch(r'    g_\w+ = glob\["\w+"\]', line)

    @pytest.mark.parametrize("source", [
        # only breaks leave a `for (;;)`
        "int main(int n) { int a = 0; for (;;) { a += 1; "
        "if (a > n) break; if (a > 7) break; } return a; }",
        # a short-circuit test spans three blocks
        "int main(int n) { int i = 0; int a = 0; "
        "while (i < n && a < 50) { a += i; i++; } return a + i; }",
        "int main(int n) { int a = 0; for (int i = 0; i < 10; i++) { "
        "if (i == n) return a; a += i; } return -a; }",
        # a `do` loop that returns, breaks, and exits into a return
        "int main(int n) { int a = 0; do { if (a == n) return 7; a++; "
        "if (a > 5) break; } while (a < 9); return a; }",
        # a `continue` re-emits the inner `do` test
        "int main(int n) { int a = 0; int i = 0; while (i < 5) { i++; "
        "int j = 0; do { j++; if (j == n) { a -= 1; continue; } a += j; "
        "} while (j < 4); } return a; }",
        # a loop over a parameter
        "int main(int n) { int s = 0; for (; n > 0; n--) s += n; "
        "return s; }",
        # a loop with no start, entered again where its last run ended
        "int main(int n) { int a = 0; int i = n & 3; for (int k = 0; "
        "k < 3; k++) for (; i < 4; i++) a++; return a; }",
    ])
    def test_loop_shapes_stay_structured(self, source):
        ir = compile_cmini(source)
        text = generate_source(ir, timed=False)
        assert "bb = " not in text
        program = program_from_source(text, ir)
        for n in range(-1, 9):
            assert call_standalone(program, n)[0] == \
                Interpreter(ir).call("main", n)

    def test_loop_at_int_limit_keeps_while_form(self):
        source = """
        int main(void) {
          int n = 0;
          for (int i = 2147483600; i <= 2147483647; i++) {
            n += 1;
            if (n > 60) break;
          }
          return n;
        }"""
        ir = compile_cmini(source)
        text = generate_source(ir, timed=False)
        assert "while True:" in text and "range(" not in text
        value, _, _ = call_standalone(program_from_source(text, ir))
        assert value == Interpreter(ir).call("main") == 61


class TestDeepNesting:
    """Beyond CPython's static nesting limits a function is emitted in the
    linear form, which still compiles and computes the same values."""

    @staticmethod
    def check(source):
        ir = compile_cmini(source)
        annotate_program(ir, microblaze())
        interp = Interpreter(ir)
        expected = interp.call("main", 1)
        text = generate_source(ir)
        value, glob, cycles = call_standalone(
            program_from_source(text, ir, timed=True), 1)
        assert value == expected and glob == interp.globals
        linear = call_standalone(
            program_from_source(generate_linear_source(ir), ir, timed=True), 1)
        assert cycles == linear[2]
        return text

    def test_25_nested_loops(self):
        depth = 25
        heads = "".join(
            "for (int a%d = 0; a%d < n; a%d++) { " % (k, k, k)
            for k in range(depth))
        text = self.check(
            "int acc; int main(int n) { %s acc += 1; %s return acc; }"
            % (heads, "}" * depth))
        assert "bb = " in text  # 25 > 20 nested loops: linear form

    def test_120_nested_ifs(self):
        depth = 120
        heads = "".join("if (n > %d) { acc += %d; " % (-k, k)
                        for k in range(depth))
        text = self.check(
            "int acc; int main(int n) { %s acc += 1; %s return acc; }"
            % (heads, "}" * depth))
        assert "bb = " in text  # deeper than 99 indentation levels

    def test_long_function_stays_structured(self):
        # Successive statements are emitted iteratively, so a long function
        # does not exhaust the stack (its linear form is too long to
        # compile, so the interpreter is the only reference here).
        ir = compile_cmini("int acc; int main(int n) { %s return acc; }" % (
            " ".join("if (n > %d) acc += %d; for (int i%d = 0; i%d < n; "
                     "i%d++) acc += i%d;" % ((k,) * 6) for k in range(1000))))
        annotate_program(ir, microblaze())
        interp = Interpreter(ir)
        expected = interp.call("main", 3)
        text = generate_source(ir)
        assert "bb = " not in text
        value, _, cycles = call_standalone(
            program_from_source(text, ir, timed=True), 3)
        assert value == expected
        assert cycles == sum(
            count * ir.function(func).blocks[label].delay
            for (func, label), count in interp.block_counts.items())

    def test_moderate_nesting_stays_structured(self):
        depth = 12
        heads = "".join(
            "for (int a%d = 0; a%d < n + 1; a%d++) { " % (k, k, k)
            for k in range(depth))
        text = self.check(
            "int acc; int main(int n) { %s acc += 1; %s return acc; }"
            % (heads, "}" * depth))
        assert "bb = " not in text


class TestCodegenKey:
    def test_scalar_initializer_enters_the_key(self):
        """Folded scalars are literals in the generated code, so two
        sources differing only in one must not share a module."""
        template = """
        int K = %d;
        int out[4];
        int main(void) {
          int s = 0;
          for (int i = 0; i < K; i++) s += i * K;
          return s;
        }"""

        def run(source, store):
            design = Design("key")
            design.add_pe("cpu", microblaze())
            design.add_process("main", source, "main", "cpu")
            result = generate_tlm(design, timed=True, store=store).run()
            return result.process("main").return_value, result.makespan_cycles

        a, b = template % 3, template % 5
        shared = ArtifactStore()
        assert run(a, shared) == run(a, ArtifactStore())
        assert run(b, shared) == run(b, ArtifactStore())
        assert run(a, shared)[0] == 9 and run(b, shared)[0] == 50
