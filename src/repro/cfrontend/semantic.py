"""Semantic analysis for CMini.

Resolves names, checks types, folds constant expressions (array sizes and
global initializers must be compile-time constants), inserts implicit
numeric :class:`~repro.cfrontend.cast.Cast` nodes, and validates the
``send``/``recv`` communication intrinsics.

The analyzer mutates the AST in place (filling ``Expr.ctype`` and resolving
array declarators) and returns a :class:`ProgramInfo` with symbol tables that
downstream passes (CDFG builder, compiler) consume.
"""

from __future__ import annotations

from . import cast
from .ctypes_ import ArrayType, FLOAT, INT, VOID, common_type, is_array
from .errors import SemanticError

#: Communication intrinsics available to processes.  ``send(chan, buf, n)``
#: writes ``n`` leading elements of array ``buf`` to channel ``chan``;
#: ``recv(chan, buf, n)`` reads ``n`` elements into ``buf``.  Both block.
COMM_BUILTINS = ("send", "recv")

_COMPARISONS = frozenset(["==", "!=", "<", ">", "<=", ">="])
_LOGICAL = frozenset(["&&", "||"])
_BITWISE = frozenset(["&", "|", "^", "<<", ">>"])
_ARITH = frozenset(["+", "-", "*", "/", "%"])


class Symbol:
    """A resolved variable symbol."""

    __slots__ = ("name", "ctype", "kind", "is_const", "decl", "value")

    def __init__(self, name, ctype, kind, is_const=False, decl=None):
        self.name = name
        self.ctype = ctype
        self.kind = kind  # "global" | "param" | "local"
        self.is_const = is_const
        self.decl = decl
        #: the folded value of a ``const`` scalar with a constant
        #: initializer (``None`` otherwise)
        self.value = None

    def __repr__(self):
        return "Symbol(%r, %r, %r)" % (self.name, self.ctype, self.kind)


class FuncInfo:
    """Symbol information for one function."""

    __slots__ = ("name", "ret_type", "params", "locals", "decl")

    def __init__(self, name, ret_type, params, decl):
        self.name = name
        self.ret_type = ret_type
        self.params = params  # list of Symbol
        self.locals = []  # list of Symbol, filled during body analysis
        self.decl = decl


class ProgramInfo:
    """Result of semantic analysis over a program."""

    def __init__(self):
        self.globals = {}  # name -> Symbol
        self.global_values = {}  # name -> evaluated initializer (scalar or list)
        self.functions = {}  # name -> FuncInfo


class _Scope:
    def __init__(self, parent=None):
        self.parent = parent
        self.symbols = {}

    def define(self, symbol, line=None):
        if symbol.name in self.symbols:
            raise SemanticError("redefinition of %r" % symbol.name, line)
        self.symbols[symbol.name] = symbol

    def lookup(self, name):
        scope = self
        while scope is not None:
            if name in scope.symbols:
                return scope.symbols[name]
            scope = scope.parent
        return None


class Analyzer:
    """Runs semantic analysis over a parsed program."""

    def __init__(self, program):
        self.program = program
        self.info = ProgramInfo()
        self._global_scope = _Scope()
        self._current = None  # FuncInfo being analyzed
        self._loop_depth = 0

    def analyze(self):
        # First pass: register function signatures so forward calls work.
        for decl in self.program.decls:
            if isinstance(decl, cast.FuncDecl):
                self._register_function(decl)
        for decl in self.program.decls:
            if isinstance(decl, cast.VarDecl):
                self._analyze_global(decl)
            else:
                self._analyze_function(decl)
        return self.info

    # -- declarations ------------------------------------------------------

    def _register_function(self, decl):
        if decl.name in self.info.functions or decl.name in COMM_BUILTINS:
            raise SemanticError("redefinition of function %r" % decl.name, decl.line)
        params = []
        seen = set()
        for param in decl.params:
            if param.name in seen:
                raise SemanticError(
                    "duplicate parameter %r" % param.name, param.line
                )
            seen.add(param.name)
            params.append(Symbol(param.name, param.ctype, "param"))
        self.info.functions[decl.name] = FuncInfo(
            decl.name, decl.ret_type, params, decl
        )

    def _resolve_declared_type(self, decl, scope):
        """Resolve the parser's ``("array", base, size_expr)`` placeholder
        (a size names constants visible in ``scope``)."""
        ctype = decl.ctype
        if isinstance(ctype, tuple) and ctype[0] == "array":
            _, base, size_expr = ctype
            if size_expr is None:
                if not isinstance(decl.init, list):
                    raise SemanticError(
                        "array %r needs a size or initializer" % decl.name,
                        decl.line,
                    )
                size = len(decl.init)
            else:
                size = self._eval_const(size_expr, scope)
                if not isinstance(size, int):
                    raise SemanticError(
                        "array size of %r must be an integer constant" % decl.name,
                        decl.line,
                    )
            ctype = ArrayType(base, size)
            decl.ctype = ctype
        return ctype

    def _analyze_global(self, decl):
        ctype = self._resolve_declared_type(decl, self._global_scope)
        symbol = Symbol(decl.name, ctype, "global", decl.is_const, decl)
        self._global_scope.define(symbol, decl.line)
        self.info.globals[decl.name] = symbol
        value = self._eval_global_init(decl, ctype)
        self.info.global_values[decl.name] = value
        # Only scalars fold: an array's elements are data, which no code
        # may depend on (see :mod:`repro.cfrontend.datasplit`).
        if decl.is_const and not is_array(ctype):
            symbol.value = value

    def _eval_global_init(self, decl, ctype):
        if is_array(ctype):
            values = [0.0 if ctype.elem == FLOAT else 0] * ctype.size
            if decl.init is not None:
                if not isinstance(decl.init, list):
                    raise SemanticError(
                        "array %r needs a brace initializer" % decl.name, decl.line
                    )
                if len(decl.init) > ctype.size:
                    raise SemanticError(
                        "too many initializers for %r" % decl.name, decl.line
                    )
                for i, expr in enumerate(decl.init):
                    values[i] = self._coerce_const(
                        self._eval_const(expr, self._global_scope), ctype.elem
                    )
            return values
        if decl.init is None:
            return 0.0 if ctype == FLOAT else 0
        if isinstance(decl.init, list):
            raise SemanticError(
                "scalar %r cannot take a brace initializer" % decl.name, decl.line
            )
        return self._coerce_const(
            self._eval_const(decl.init, self._global_scope), ctype
        )

    @staticmethod
    def _coerce_const(value, ctype):
        if ctype == FLOAT:
            return float(value)
        return int(value)

    def _eval_const(self, expr, scope):
        """Evaluate a compile-time constant expression; a name must resolve
        in ``scope`` to a ``const`` scalar with a constant initializer."""
        if isinstance(expr, cast.IntLit):
            return expr.value
        if isinstance(expr, cast.FloatLit):
            return expr.value
        if isinstance(expr, cast.Name):
            symbol = scope.lookup(expr.name)
            if symbol is not None and symbol.value is not None:
                return symbol.value
            raise SemanticError(
                "%r is not a compile-time constant" % expr.name, expr.line
            )
        if isinstance(expr, cast.UnOp):
            value = self._eval_const(expr.operand, scope)
            if expr.op == "-":
                return -value
            if expr.op == "~":
                return ~int(value)
            if expr.op == "!":
                return 0 if value else 1
        if isinstance(expr, cast.BinOp):
            left = self._eval_const(expr.left, scope)
            right = self._eval_const(expr.right, scope)
            try:
                return _fold_binop(expr.op, left, right)
            except ZeroDivisionError:
                raise SemanticError("division by zero in constant", expr.line)
        if isinstance(expr, cast.Cast):
            value = self._eval_const(expr.operand, scope)
            return self._coerce_const(value, expr.target)
        raise SemanticError("expression is not a compile-time constant", expr.line)

    # -- functions and statements -------------------------------------------

    def _analyze_function(self, decl):
        info = self.info.functions[decl.name]
        self._current = info
        scope = _Scope(self._global_scope)
        for symbol in info.params:
            scope.define(symbol, decl.line)
        self._analyze_block(decl.body, scope)
        self._current = None

    def _analyze_block(self, block, parent_scope):
        scope = _Scope(parent_scope)
        for stmt in block.stmts:
            self._analyze_stmt(stmt, scope)

    def _analyze_stmt(self, stmt, scope):
        if isinstance(stmt, cast.VarDecl):
            self._analyze_local_decl(stmt, scope)
        elif isinstance(stmt, cast.Block):
            self._analyze_block(stmt, scope)
        elif isinstance(stmt, cast.ExprStmt):
            self._analyze_expr(stmt.expr, scope)
        elif isinstance(stmt, cast.If):
            self._require_scalar(self._analyze_expr(stmt.cond, scope), stmt.line)
            self._analyze_block(stmt.then, scope)
            if stmt.other is not None:
                self._analyze_block(stmt.other, scope)
        elif isinstance(stmt, cast.While):
            self._require_scalar(self._analyze_expr(stmt.cond, scope), stmt.line)
            self._loop_depth += 1
            self._analyze_block(stmt.body, scope)
            self._loop_depth -= 1
        elif isinstance(stmt, cast.DoWhile):
            self._loop_depth += 1
            self._analyze_block(stmt.body, scope)
            self._loop_depth -= 1
            self._require_scalar(self._analyze_expr(stmt.cond, scope), stmt.line)
        elif isinstance(stmt, cast.For):
            inner = _Scope(scope)
            if stmt.init is not None:
                for init_stmt in stmt.init:
                    self._analyze_stmt(init_stmt, inner)
            if stmt.cond is not None:
                self._require_scalar(self._analyze_expr(stmt.cond, inner), stmt.line)
            if stmt.step is not None:
                self._analyze_expr(stmt.step, inner)
            self._loop_depth += 1
            self._analyze_block(stmt.body, inner)
            self._loop_depth -= 1
        elif isinstance(stmt, cast.Return):
            self._analyze_return(stmt, scope)
        elif isinstance(stmt, cast.Break):
            if self._loop_depth == 0:
                raise SemanticError("break outside loop", stmt.line)
        elif isinstance(stmt, cast.Continue):
            if self._loop_depth == 0:
                raise SemanticError("continue outside loop", stmt.line)
        else:  # pragma: no cover - parser produces no other statements
            raise SemanticError("unknown statement %r" % stmt, stmt.line)

    def _analyze_local_decl(self, decl, scope):
        ctype = self._resolve_declared_type(decl, scope)
        symbol = Symbol(decl.name, ctype, "local", decl.is_const, decl)
        scope.define(symbol, decl.line)
        self._current.locals.append(symbol)
        if is_array(ctype):
            if decl.init is not None:
                if not isinstance(decl.init, list):
                    raise SemanticError(
                        "array %r needs a brace initializer" % decl.name, decl.line
                    )
                # Local array initializers must be constant (like the paper's
                # coefficient tables); fold them now.
                folded = [
                    self._coerce_const(self._eval_const(e, scope), ctype.elem)
                    for e in decl.init
                ]
                if len(folded) > ctype.size:
                    raise SemanticError(
                        "too many initializers for %r" % decl.name, decl.line
                    )
                decl.init = folded
        else:
            if isinstance(decl.init, list):
                raise SemanticError(
                    "scalar %r cannot take a brace initializer" % decl.name,
                    decl.line,
                )
            if decl.init is not None:
                value_type = self._analyze_expr(decl.init, scope)
                self._require_scalar(value_type, decl.line)
                if value_type != ctype:
                    decl.init = _wrap_cast(decl.init, ctype)
            if decl.is_const and decl.init is not None:
                try:
                    symbol.value = self._coerce_const(
                        self._eval_const(_strip_cast(decl.init), scope), ctype
                    )
                except SemanticError:
                    pass  # non-constant const locals are still valid variables

    def _analyze_return(self, stmt, scope):
        ret = self._current.ret_type
        if stmt.value is None:
            if ret != VOID:
                raise SemanticError(
                    "non-void function %r must return a value" % self._current.name,
                    stmt.line,
                )
            return
        if ret == VOID:
            raise SemanticError(
                "void function %r cannot return a value" % self._current.name,
                stmt.line,
            )
        value_type = self._analyze_expr(stmt.value, scope)
        self._require_scalar(value_type, stmt.line)
        if value_type != ret:
            stmt.value = _wrap_cast(stmt.value, ret)

    # -- expressions -------------------------------------------------------

    def _analyze_expr(self, expr, scope):
        """Type-check ``expr``; fills ``expr.ctype`` and returns it."""
        method = getattr(self, "_expr_" + type(expr).__name__, None)
        if method is None:  # pragma: no cover
            raise SemanticError("unknown expression %r" % expr, expr.line)
        expr.ctype = method(expr, scope)
        return expr.ctype

    def _expr_IntLit(self, expr, scope):
        return INT

    def _expr_FloatLit(self, expr, scope):
        return FLOAT

    def _expr_Name(self, expr, scope):
        symbol = scope.lookup(expr.name)
        if symbol is None:
            raise SemanticError("undefined variable %r" % expr.name, expr.line)
        return symbol.ctype

    def _expr_Index(self, expr, scope):
        base_type = self._analyze_expr(expr.base, scope)
        if not is_array(base_type):
            raise SemanticError(
                "%r is not an array" % expr.base.name, expr.line
            )
        index_type = self._analyze_expr(expr.index, scope)
        if index_type != INT:
            if index_type == FLOAT:
                raise SemanticError("array index must be an int", expr.line)
            raise SemanticError("invalid array index", expr.line)
        return base_type.elem

    def _expr_BinOp(self, expr, scope):
        left = self._analyze_expr(expr.left, scope)
        right = self._analyze_expr(expr.right, scope)
        self._require_scalar(left, expr.line)
        self._require_scalar(right, expr.line)
        op = expr.op
        if op in _LOGICAL:
            return INT
        if op in _BITWISE or op == "%":
            if left != INT or right != INT:
                raise SemanticError(
                    "operator %r requires int operands" % op, expr.line
                )
            return INT
        result = common_type(left, right)
        if left != result:
            expr.left = _wrap_cast(expr.left, result)
        if right != result:
            expr.right = _wrap_cast(expr.right, result)
        if op in _COMPARISONS:
            return INT
        if op in _ARITH:
            return result
        raise SemanticError("unknown operator %r" % op, expr.line)

    def _expr_UnOp(self, expr, scope):
        operand = self._analyze_expr(expr.operand, scope)
        self._require_scalar(operand, expr.line)
        if expr.op == "-":
            return operand
        if expr.op in ("!",):
            return INT
        if expr.op == "~":
            if operand != INT:
                raise SemanticError("operator ~ requires an int operand", expr.line)
            return INT
        raise SemanticError("unknown unary operator %r" % expr.op, expr.line)

    def _expr_Cast(self, expr, scope):
        operand = self._analyze_expr(expr.operand, scope)
        self._require_scalar(operand, expr.line)
        return expr.target

    def _expr_Cond(self, expr, scope):
        self._require_scalar(self._analyze_expr(expr.cond, scope), expr.line)
        then = self._analyze_expr(expr.then, scope)
        other = self._analyze_expr(expr.other, scope)
        self._require_scalar(then, expr.line)
        self._require_scalar(other, expr.line)
        result = common_type(then, other)
        if then != result:
            expr.then = _wrap_cast(expr.then, result)
        if other != result:
            expr.other = _wrap_cast(expr.other, result)
        return result

    def _expr_Assign(self, expr, scope):
        target_type = self._analyze_expr(expr.target, scope)
        self._require_scalar(target_type, expr.line)
        self._check_not_const(expr.target, scope)
        value_type = self._analyze_expr(expr.value, scope)
        self._require_scalar(value_type, expr.line)
        if expr.op != "=":
            base_op = expr.op[:-1]
            if base_op in _BITWISE or base_op == "%":
                if target_type != INT or value_type != INT:
                    raise SemanticError(
                        "operator %r requires int operands" % expr.op, expr.line
                    )
        if value_type != target_type:
            expr.value = _wrap_cast(expr.value, target_type)
        return target_type

    def _expr_Call(self, expr, scope):
        if expr.name in COMM_BUILTINS:
            return self._check_comm_builtin(expr, scope)
        info = self.info.functions.get(expr.name)
        if info is None:
            raise SemanticError("undefined function %r" % expr.name, expr.line)
        if len(expr.args) != len(info.params):
            raise SemanticError(
                "%s() expects %d arguments, got %d"
                % (expr.name, len(info.params), len(expr.args)),
                expr.line,
            )
        for i, (arg, param) in enumerate(zip(expr.args, info.params)):
            arg_type = self._analyze_expr(arg, scope)
            if is_array(param.ctype):
                if not is_array(arg_type) or arg_type.elem != param.ctype.elem:
                    raise SemanticError(
                        "argument %d of %s() must be a %s array"
                        % (i + 1, expr.name, param.ctype.elem),
                        expr.line,
                    )
                if not isinstance(arg, cast.Name):
                    raise SemanticError(
                        "array arguments must be plain names", expr.line
                    )
            else:
                self._require_scalar(arg_type, expr.line)
                if arg_type != param.ctype:
                    expr.args[i] = _wrap_cast(arg, param.ctype)
        return info.ret_type

    def _check_comm_builtin(self, expr, scope):
        if len(expr.args) != 3:
            raise SemanticError(
                "%s() expects (channel, buffer, count)" % expr.name, expr.line
            )
        chan_type = self._analyze_expr(expr.args[0], scope)
        if chan_type != INT:
            raise SemanticError("channel id must be an int", expr.line)
        buf_type = self._analyze_expr(expr.args[1], scope)
        if not is_array(buf_type):
            raise SemanticError(
                "%s() buffer must be an array" % expr.name, expr.line
            )
        if not isinstance(expr.args[1], cast.Name):
            raise SemanticError("buffer argument must be a plain name", expr.line)
        count_type = self._analyze_expr(expr.args[2], scope)
        if count_type != INT:
            raise SemanticError("count must be an int", expr.line)
        return VOID

    # -- helpers -----------------------------------------------------------

    def _check_not_const(self, target, scope):
        name = target.name if isinstance(target, cast.Name) else target.base.name
        symbol = scope.lookup(name)
        if symbol is not None and symbol.is_const:
            raise SemanticError("cannot assign to const %r" % name, target.line)

    @staticmethod
    def _require_scalar(ctype, line):
        if is_array(ctype):
            raise SemanticError("array used where a scalar is required", line)
        if ctype == VOID:
            raise SemanticError("void value used in an expression", line)


def _wrap_cast(expr, target):
    node = cast.Cast(target, expr, expr.line)
    node.ctype = target
    return node


def _strip_cast(expr):
    while isinstance(expr, cast.Cast):
        expr = expr.operand
    return expr


def _fold_binop(op, left, right):
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if isinstance(left, int) and isinstance(right, int):
            return _c_int_div(left, right)
        return left / right
    if op == "%":
        return _c_int_rem(int(left), int(right))
    if op == "<<":
        return int(left) << int(right)
    if op == ">>":
        return int(left) >> int(right)
    if op == "&":
        return int(left) & int(right)
    if op == "|":
        return int(left) | int(right)
    if op == "^":
        return int(left) ^ int(right)
    if op == "==":
        return int(left == right)
    if op == "!=":
        return int(left != right)
    if op == "<":
        return int(left < right)
    if op == ">":
        return int(left > right)
    if op == "<=":
        return int(left <= right)
    if op == ">=":
        return int(left >= right)
    if op == "&&":
        return int(bool(left) and bool(right))
    if op == "||":
        return int(bool(left) or bool(right))
    raise SemanticError("cannot fold operator %r" % op)


def _c_int_div(a, b):
    """C-style integer division (truncates toward zero)."""
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _c_int_rem(a, b):
    return a - _c_int_div(a, b) * b


def analyze(program):
    """Run semantic analysis; returns :class:`ProgramInfo`."""
    return Analyzer(program).analyze()


def parse_and_analyze(source):
    """Parse and analyze CMini source; returns ``(program, info)``."""
    from .parser import parse

    program = parse(source)
    info = analyze(program)
    return program, info
