"""Unit tests for the timed Python code generator."""

import pytest

from repro.api import annotate_program, compile_cmini
from repro.cdfg.interp import Interpreter
from repro.codegen import CodegenError, ProcessContext, generate_program, generate_source
from repro.codegen.pygen import generate_linear_source, program_from_source
from repro.pum import microblaze


def build(source, timed=False):
    ir = compile_cmini(source)
    if timed:
        annotate_program(ir, microblaze())
    return generate_program(ir, timed=timed)


def call(source, func="main", *args, timed=False):
    generated = build(source, timed=timed)
    ctx = ProcessContext()
    result = generated.entry(func)(ctx, generated.fresh_globals(), *args)
    return result, ctx


class TestFunctionalCorrectness:
    def test_int_arithmetic(self):
        result, _ = call("int main(void) { return (7 * 3 - 1) / 4 % 3; }")
        assert result == 2

    def test_c_division(self):
        assert call("int main(void) { return -9 / 2; }")[0] == -4
        assert call("int main(void) { return -9 % 2; }")[0] == -1

    def test_overflow_wraps(self):
        result, _ = call(
            "int main(void) { int x = 2000000000; return x + x; }"
        )
        assert result == -294967296

    def test_shift_semantics(self):
        assert call("int main(void) { return -16 >> 2; }")[0] == -4
        assert call("int main(void) { return 1 << 33; }")[0] == 2

    def test_float_and_cast(self):
        result, _ = call("int main(void) { return (int)(2.5 * 4.0 - 0.5); }")
        assert result == 9

    def test_arrays_and_loops(self):
        result, _ = call("""
        int main(void) {
          int a[6];
          for (int i = 0; i < 6; i++) a[i] = i * i;
          int s = 0;
          for (int i = 0; i < 6; i++) s += a[i];
          return s;
        }""")
        assert result == 55

    def test_globals_shared_across_calls(self):
        generated = build("int g; int bump(void) { g += 3; return g; }")
        glob = generated.fresh_globals()
        ctx = ProcessContext()
        fn = generated.entry("bump")
        assert fn(ctx, glob) == 3
        assert fn(ctx, glob) == 6
        assert glob["g"] == 6

    def test_array_param_aliasing(self):
        result, _ = call("""
        void double_all(int a[], int n) {
          for (int i = 0; i < n; i++) a[i] *= 2;
        }
        int main(void) {
          int b[3] = {1, 2, 3};
          double_all(b, 3);
          return b[0] + b[1] + b[2];
        }""")
        assert result == 12

    def test_recursion(self):
        result, _ = call("""
        int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
        int main(void) { return fib(12); }
        """)
        assert result == 144

    def test_local_array_initializer(self):
        result, _ = call("""
        int main(void) {
          int t[5] = {10, 20, 30};
          return t[0] + t[2] + t[4];
        }""")
        assert result == 40

    def test_void_function_returns_none(self):
        generated = build("void f(void) { }")
        assert generated.entry("f")(ProcessContext(), {}) is None

    def test_division_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            call("int main(void) { int z = 0; return 5 / z; }")

    @pytest.mark.parametrize("source", [
        "float main(void) { float x = 1e400; return x; }",
        "float main(void) { float x = -1e400; return x; }",
        "float main(void) { float a[2] = {1e400 - 1e400, 1e400}; "
        "return a[0] + a[1]; }",
    ], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("emit", [generate_source, generate_linear_source])
    @pytest.mark.parametrize("timed", [False, True])
    def test_non_finite_float_literals(self, source, emit, timed):
        # repr() writes these literals as inf and nan.
        ir = compile_cmini(source)
        if timed:
            annotate_program(ir, microblaze())
        expected = Interpreter(ir).call("main")
        generated = program_from_source(emit(ir, timed), ir, timed=timed)
        value = generated.entry("main")(ProcessContext(),
                                        generated.fresh_globals())
        assert repr(value) == repr(expected)


class TestTimedGeneration:
    def test_timed_requires_annotation(self):
        ir = compile_cmini("int main(void) { return 1; }")
        with pytest.raises(CodegenError):
            generate_program(ir, timed=True)

    def test_wait_calls_present_in_timed_source(self):
        ir = compile_cmini("int main(void) { return 1; }")
        annotate_program(ir, microblaze())
        source = generate_source(ir, timed=True)
        assert "ctx.wait(" in source

    def test_untimed_source_has_no_waits(self):
        ir = compile_cmini("int main(void) { return 1; }")
        source = generate_source(ir, timed=False)
        assert "ctx.wait(" not in source

    def test_total_cycles_accumulate(self):
        _, ctx = call("""
        int main(void) {
          int s = 0;
          for (int i = 0; i < 10; i++) s += i;
          return s;
        }""", timed=True)
        assert ctx.total_cycles > 0
        assert ctx.pending_cycles == ctx.total_cycles  # never synced

    def test_cycles_scale_with_work(self):
        src = """
        int main(void) {
          int s = 0;
          for (int i = 0; i < %d; i++) s += i;
          return s;
        }"""
        _, ctx_small = call(src % 10, timed=True)
        _, ctx_big = call(src % 1000, timed=True)
        assert ctx_big.total_cycles > 50 * ctx_small.total_cycles

    def test_zero_delay_blocks_emit_no_wait(self):
        ir = compile_cmini("int main(void) { return 1; }")
        annotate_program(ir, microblaze())
        for func in ir.functions.values():
            for block in func.blocks:
                block.delay = 0
        source = generate_source(ir, timed=True)
        assert "ctx.wait(" not in source


class TestGeneratedShape:
    def test_single_block_function_has_no_dispatch(self):
        ir = compile_cmini("int f(int a) { return a + 1; }")
        source = generate_source(ir, timed=False)
        assert "while True" not in source

    def test_multi_block_uses_structured_control_flow(self):
        ir = compile_cmini("int f(int a) { if (a) return 1; return 2; }")
        source = generate_source(ir, timed=False)
        assert "bb = " not in source
        assert "while True" not in source
        assert "if (v_a) != 0:" in source

    def test_source_compiles_standalone(self):
        ir = compile_cmini("float f(float x) { return x * 0.5; }")
        source = generate_source(ir, timed=False)
        namespace = {}
        exec(compile(source, "<test>", "exec"), namespace)
        assert "f_f" in namespace
