"""Unit tests for CMini semantic analysis."""

import pytest

from repro.cfrontend import cast
from repro.cfrontend.ctypes_ import FLOAT, INT
from repro.cfrontend.errors import SemanticError
from repro.cfrontend.semantic import parse_and_analyze


def analyze(source):
    return parse_and_analyze(source)


class TestGlobals:
    def test_scalar_default_values(self):
        _, info = analyze("int a; float b;")
        assert info.global_values == {"a": 0, "b": 0.0}

    def test_const_folding_in_initializers(self):
        _, info = analyze("const int N = 2 * 3 + 1; int a = N << 1;")
        assert info.global_values["N"] == 7
        assert info.global_values["a"] == 14

    def test_array_size_from_const(self):
        _, info = analyze("const int N = 3; int a[N * 2];")
        assert info.globals["a"].ctype.size == 6

    def test_array_size_from_initializer(self):
        _, info = analyze("int a[] = {1, 2, 3};")
        assert info.globals["a"].ctype.size == 3

    def test_array_init_padding(self):
        _, info = analyze("float a[4] = {1.5};")
        assert info.global_values["a"] == [1.5, 0.0, 0.0, 0.0]

    def test_int_initializer_coerced_to_float(self):
        _, info = analyze("float a[2] = {1, 2};")
        assert info.global_values["a"] == [1.0, 2.0]

    def test_negative_const_expr(self):
        _, info = analyze("const int M = -(3 - 5); int x = M;")
        assert info.global_values["x"] == 2

    def test_too_many_initializers(self):
        with pytest.raises(SemanticError):
            analyze("int a[2] = {1, 2, 3};")

    def test_non_constant_global_init(self):
        with pytest.raises(SemanticError):
            analyze("int a; int b = a;")

    def test_zero_array_size(self):
        with pytest.raises(SemanticError):
            analyze("int a[0];")

    def test_division_by_zero_in_const(self):
        with pytest.raises(SemanticError):
            analyze("int a = 1 / 0;")

    def test_duplicate_global(self):
        with pytest.raises(SemanticError):
            analyze("int a; float a;")


class TestTypeChecking:
    def test_int_float_promotion_inserts_cast(self):
        program, _ = analyze("float f(int a) { return a + 1.5; }")
        ret = program.functions[0].body.stmts[0]
        binop = ret.value
        assert isinstance(binop.left, cast.Cast)
        assert binop.ctype == FLOAT

    def test_comparison_yields_int(self):
        program, _ = analyze("int f(float a) { return a < 2.0; }")
        assert program.functions[0].body.stmts[0].value.ctype == INT

    def test_modulo_requires_ints(self):
        with pytest.raises(SemanticError):
            analyze("float f(float a) { return a % 2.0; }")

    def test_shift_requires_ints(self):
        with pytest.raises(SemanticError):
            analyze("int f(float a) { return 1 << a; }")

    def test_bitnot_requires_int(self):
        with pytest.raises(SemanticError):
            analyze("float f(float a) { return ~a; }")

    def test_float_index_rejected(self):
        with pytest.raises(SemanticError):
            analyze("int g[4]; int f(float x) { return g[x]; }")

    def test_indexing_scalar_rejected(self):
        with pytest.raises(SemanticError):
            analyze("int g; int f(void) { return g[0]; }")

    def test_assignment_conversion(self):
        program, _ = analyze("void f(void) { int x; x = 2.5; }")
        assign = program.functions[0].body.stmts[1].expr
        assert isinstance(assign.value, cast.Cast)
        assert assign.value.target == INT

    def test_return_conversion(self):
        program, _ = analyze("int f(void) { return 2.5; }")
        assert isinstance(program.functions[0].body.stmts[0].value, cast.Cast)

    def test_void_return_with_value_rejected(self):
        with pytest.raises(SemanticError):
            analyze("void f(void) { return 1; }")

    def test_missing_return_value_rejected(self):
        with pytest.raises(SemanticError):
            analyze("int f(void) { return; }")

    def test_array_in_arithmetic_rejected(self):
        with pytest.raises(SemanticError):
            analyze("int a[4]; int f(void) { return a + 1; }")

    def test_assign_to_const_rejected(self):
        with pytest.raises(SemanticError):
            analyze("void f(void) { const int x = 1; x = 2; }")

    def test_void_call_in_expression_rejected(self):
        with pytest.raises(SemanticError):
            analyze("void g(void) { } int f(void) { return g() + 1; }")


class TestScoping:
    def test_undefined_variable(self):
        with pytest.raises(SemanticError):
            analyze("int f(void) { return nope; }")

    def test_undefined_function(self):
        with pytest.raises(SemanticError):
            analyze("int f(void) { return g(); }")

    def test_forward_function_reference_ok(self):
        analyze("int f(void) { return g(); } int g(void) { return 1; }")

    def test_inner_scope_shadowing(self):
        analyze("int f(int x) { { int y = x; } { float y = 1.0; } return x; }")

    def test_duplicate_in_same_scope(self):
        with pytest.raises(SemanticError):
            analyze("void f(void) { int x; int x; }")

    def test_duplicate_parameter(self):
        with pytest.raises(SemanticError):
            analyze("void f(int a, int a) { }")

    def test_break_outside_loop(self):
        with pytest.raises(SemanticError):
            analyze("void f(void) { break; }")

    def test_continue_outside_loop(self):
        with pytest.raises(SemanticError):
            analyze("void f(void) { continue; }")

    def test_redefining_function(self):
        with pytest.raises(SemanticError):
            analyze("void f(void) { } int f(void) { return 1; }")


class TestConstantScopes:
    """A constant name resolves through the same scopes as any other name:
    an array size sees only the ``const`` scalars in scope where it is
    declared."""

    def test_function_local_const_does_not_leak(self):
        _, info = parse_and_analyze(
            "const int N = 2; void f(void) { const int N = 5; } int a[N];")
        assert info.globals["a"].ctype.size == 2

    def test_out_of_scope_const_is_not_a_constant(self):
        with pytest.raises(SemanticError, match="'N'"):
            analyze("void f(void) { const int N = 3; } int a[N];")

    def test_non_const_local_shadows_global_const(self):
        with pytest.raises(SemanticError, match="'N'"):
            analyze("const int N = 4; "
                    "int f(void) { int N = 9; float a[N]; return 0; }")

    def test_block_const_ends_with_its_block(self):
        with pytest.raises(SemanticError, match="'M'"):
            analyze("int f(void) { { const int M = 3; } int b[M]; "
                    "return 0; }")

    def test_visible_consts_fold(self):
        _, info = parse_and_analyze(
            "const int N = 4; int f(void) { const int K = N * 2; "
            "{ float a[K]; } return 0; }")
        sizes = {s.name: s.ctype.size for s in info.functions["f"].locals
                 if s.name == "a"}
        assert sizes == {"a": 8}


class TestCalls:
    def test_arity_mismatch(self):
        with pytest.raises(SemanticError):
            analyze("int g(int a) { return a; } int f(void) { return g(); }")

    def test_scalar_arg_conversion(self):
        program, _ = analyze(
            "float g(float a) { return a; } float f(void) { return g(1); }"
        )
        call = program.functions[1].body.stmts[0].value
        assert isinstance(call.args[0], cast.Cast)

    def test_array_argument(self):
        analyze("int g(int a[]) { return a[0]; }"
                "int b[4]; int f(void) { return g(b); }")

    def test_scalar_for_array_param_rejected(self):
        with pytest.raises(SemanticError):
            analyze("int g(int a[]) { return a[0]; }"
                    "int f(void) { return g(1); }")

    def test_wrong_element_type_rejected(self):
        with pytest.raises(SemanticError):
            analyze("int g(int a[]) { return a[0]; }"
                    "float b[4]; int f(void) { return g(b); }")


class TestCommBuiltins:
    def test_send_ok(self):
        analyze("int b[8]; void f(void) { send(1, b, 8); }")

    def test_recv_ok(self):
        analyze("float b[8]; void f(void) { recv(2, b, 4); }")

    def test_wrong_arity(self):
        with pytest.raises(SemanticError):
            analyze("int b[8]; void f(void) { send(1, b); }")

    def test_scalar_buffer_rejected(self):
        with pytest.raises(SemanticError):
            analyze("int b; void f(void) { send(1, b, 1); }")

    def test_float_channel_rejected(self):
        with pytest.raises(SemanticError):
            analyze("int b[4]; void f(void) { send(1.5, b, 1); }")

    def test_cannot_define_function_named_send(self):
        with pytest.raises(SemanticError):
            analyze("void send(void) { }")
