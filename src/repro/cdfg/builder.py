"""Lowering from the CMini AST to the linear IR / CDFG.

This pass plays the role of the paper's LLVM front-end: it translates each
application process into a control/data-flow graph whose basic blocks are the
unit of timing annotation.

Lowering notes:

* ``&&``/``||`` and the ternary operator are lowered to control flow with a
  synthetic scalar temporary variable, preserving C short-circuit semantics.
* ``x op= v`` expands to load / binop / store.
* Local arrays with constant initializers are materialised by the frame
  (like C ``static const`` tables) rather than element-wise stores.
* Functions that can fall off their end get an implicit ``return``
  (returning 0 / 0.0 for non-void functions, as many C compilers allow).
"""

from __future__ import annotations

from ..cfrontend import cast
from ..cfrontend.ctypes_ import FLOAT, INT, VOID, is_array
from ..cfrontend.errors import SemanticError
from .ir import IRFunction, IRProgram, Op


def build_program(program, info):
    """Lower an analyzed AST ``program`` to an :class:`IRProgram`."""
    ir_program = IRProgram()
    for name, symbol in info.globals.items():
        ir_program.globals[name] = (symbol.ctype, info.global_values[name])
    for decl in program.functions:
        func_info = info.functions[decl.name]
        builder = _FunctionBuilder(decl, func_info, info, ir_program)
        ir_program.add_function(builder.build())
    return ir_program


def _op_result_type(op):
    """The CMini type of the value an op defines."""
    attrs = op.attrs
    if op.opcode == "bin":
        return attrs.get("result_type", attrs["ctype"])
    if op.opcode == "cast":
        return attrs["to_type"]
    return attrs.get("ctype", INT)


def _localize_cross_block_temps(func):
    """Rewrite temps whose uses escape their defining block.

    Lowering of expressions that *contain* control flow (ternaries and
    short-circuit operators as subexpressions) can leave a temp defined in
    one block and used in a later one.  Downstream consumers — notably the
    per-block register allocator of the R32 compiler — rely on temps being
    block-local, so such temps are demoted to synthetic scalar locals: a
    store after the definition, a load at the top of each foreign using
    block.  Straight-line dominance of the def over all uses is guaranteed
    by the structured lowering.
    """
    def_block = {}
    for block in func.blocks:
        for op in block.ops:
            if op.dst is not None:
                def_block[op.dst] = (block.label, op)
    crossing = set()
    for block in func.blocks:
        for op in block.ops:
            for arg in op.args:
                if def_block[arg][0] != block.label:
                    crossing.add(arg)
    if not crossing:
        return
    var_of = {}
    for index, temp in enumerate(sorted(crossing)):
        label, def_op = def_block[temp]
        name = "__x%d" % temp
        var_of[temp] = name
        func.locals[name] = _op_result_type(def_op)
        block = func.blocks[label]
        pos = block.ops.index(def_op)
        block.ops.insert(
            pos + 1,
            Op("st", args=(temp,), attrs={
                "var": name, "scope": "local",
                "ctype": func.locals[name],
            }, line=def_op.line),
        )
    for block in func.blocks:
        needed = set()
        for op in block.ops:
            for arg in op.args:
                if arg in crossing and def_block[arg][0] != block.label:
                    needed.add(arg)
        if not needed:
            continue
        replacement = {}
        preload = []
        for temp in sorted(needed):
            fresh = func.new_temp()
            replacement[temp] = fresh
            preload.append(
                Op("ld", dst=fresh, attrs={
                    "var": var_of[temp], "scope": "local",
                    "ctype": func.locals[var_of[temp]],
                })
            )
        for op in block.ops:
            if any(arg in replacement for arg in op.args):
                op.args = tuple(replacement.get(a, a) for a in op.args)
        block.ops[0:0] = preload


class _LoopContext:
    __slots__ = ("break_label", "continue_label")

    def __init__(self, break_label, continue_label):
        self.break_label = break_label
        self.continue_label = continue_label


class _FunctionBuilder:
    def __init__(self, decl, func_info, program_info, ir_program):
        self.decl = decl
        self.func_info = func_info
        self.program_info = program_info
        self.ir_program = ir_program
        self.func = IRFunction(
            decl.name,
            decl.ret_type,
            [(p.name, p.ctype) for p in func_info.params],
        )
        self.block = self.func.new_block()
        self.loops = []
        self._synth_counter = 0
        # Local shadowing: CMini scoping was validated by semantic analysis;
        # lowering flattens scopes, renaming inner duplicates.  Resolution
        # is strictly stack-based (params seed the outermost frame) so a
        # local never leaks past its block — in particular, a local that
        # shadows a global must not capture later uses of the global.
        self._rename_stack = [{p.name: p.name for p in func_info.params}]
        self._local_names = {p.name for p in func_info.params}

    # -- infrastructure ------------------------------------------------------

    def build(self):
        self._lower_block(self.decl.body)
        if self.block.terminator is None:
            self._emit_implicit_return()
        self.func.remove_unreachable_blocks()
        _localize_cross_block_temps(self.func)
        return self.func

    def _emit(self, opcode, dst=None, args=(), line=None, **attrs):
        op = Op(opcode, dst, args, attrs, line)
        self.block.append(op)
        return op

    def _temp(self):
        return self.func.new_temp()

    def _start_block(self, block):
        self.block = block

    def _synth_local(self, ctype, hint="sc"):
        """Create a synthetic scalar local (for short-circuit / ternary)."""
        name = "__%s%d" % (hint, self._synth_counter)
        self._synth_counter += 1
        self.func.locals[name] = ctype
        return name

    def _declare_local(self, name, ctype, line):
        """Register a local, renaming if an outer scope already used the name."""
        if name in self._local_names:
            unique = "%s__%d" % (name, self._synth_counter)
            self._synth_counter += 1
        else:
            unique = name
        self._rename_stack[-1][name] = unique
        self._local_names.add(unique)
        self.func.locals[unique] = ctype
        return unique

    def _resolve(self, name):
        """Map a source-level name to its storage name and scope.

        Only the scope stack resolves locals; falling back to
        ``func.locals`` would let block-scoped names (which lowering keeps
        in the flat local table) shadow globals beyond their block.
        """
        for frame in reversed(self._rename_stack):
            if name in frame:
                return frame[name], "local"
        if name in self.ir_program.globals:
            return name, "global"
        raise SemanticError("unresolved name %r during lowering" % name)

    def _emit_implicit_return(self):
        if self.decl.ret_type == VOID:
            self._emit("ret")
        else:
            temp = self._temp()
            zero = 0.0 if self.decl.ret_type == FLOAT else 0
            self._emit("const", dst=temp, value=zero, ctype=self.decl.ret_type)
            self._emit("ret", args=(temp,))

    # -- statements ----------------------------------------------------------

    def _lower_block(self, block):
        self._rename_stack.append({})
        for stmt in block.stmts:
            if self.block.terminator is not None:
                break  # dead code after return/break/continue
            self._lower_stmt(stmt)
        self._rename_stack.pop()

    def _lower_stmt(self, stmt):
        if isinstance(stmt, cast.VarDecl):
            self._lower_var_decl(stmt)
        elif isinstance(stmt, cast.Block):
            self._lower_block(stmt)
        elif isinstance(stmt, cast.ExprStmt):
            self._lower_expr(stmt.expr)
        elif isinstance(stmt, cast.If):
            self._lower_if(stmt)
        elif isinstance(stmt, cast.While):
            self._lower_while(stmt)
        elif isinstance(stmt, cast.DoWhile):
            self._lower_do_while(stmt)
        elif isinstance(stmt, cast.For):
            self._lower_for(stmt)
        elif isinstance(stmt, cast.Return):
            self._lower_return(stmt)
        elif isinstance(stmt, cast.Break):
            self._emit("jmp", label=self.loops[-1].break_label, line=stmt.line)
        elif isinstance(stmt, cast.Continue):
            self._emit("jmp", label=self.loops[-1].continue_label, line=stmt.line)
        else:  # pragma: no cover
            raise SemanticError("cannot lower statement %r" % stmt, stmt.line)

    def _lower_var_decl(self, decl):
        name = self._declare_local(decl.name, decl.ctype, decl.line)
        if is_array(decl.ctype):
            if decl.init is not None:
                self.func.local_array_inits[name] = list(decl.init)
            return
        if decl.init is not None:
            value = self._lower_expr(decl.init)
            self._emit(
                "st", args=(value,), var=name, scope="local",
                ctype=decl.ctype, line=decl.line,
            )

    def _lower_if(self, stmt):
        cond = self._lower_expr(stmt.cond)
        then_block = self.func.new_block()
        join_block = self.func.new_block()
        if stmt.other is not None:
            else_block = self.func.new_block()
        else:
            else_block = join_block
        self._emit(
            "br",
            args=(cond,),
            true_label=then_block.label,
            false_label=else_block.label,
            line=stmt.line,
        )
        self._start_block(then_block)
        self._lower_block(stmt.then)
        if self.block.terminator is None:
            self._emit("jmp", label=join_block.label)
        if stmt.other is not None:
            self._start_block(else_block)
            self._lower_block(stmt.other)
            if self.block.terminator is None:
                self._emit("jmp", label=join_block.label)
        self._start_block(join_block)

    def _lower_while(self, stmt):
        head = self.func.new_block()
        body = self.func.new_block()
        exit_block = self.func.new_block()
        self._emit("jmp", label=head.label, line=stmt.line)
        self._start_block(head)
        cond = self._lower_expr(stmt.cond)
        self._emit(
            "br",
            args=(cond,),
            true_label=body.label,
            false_label=exit_block.label,
            line=stmt.line,
        )
        self.loops.append(_LoopContext(exit_block.label, head.label))
        self._start_block(body)
        self._lower_block(stmt.body)
        if self.block.terminator is None:
            self._emit("jmp", label=head.label)
        self.loops.pop()
        self._start_block(exit_block)

    def _lower_do_while(self, stmt):
        body = self.func.new_block()
        cond_block = self.func.new_block()
        exit_block = self.func.new_block()
        self._emit("jmp", label=body.label, line=stmt.line)
        self.loops.append(_LoopContext(exit_block.label, cond_block.label))
        self._start_block(body)
        self._lower_block(stmt.body)
        if self.block.terminator is None:
            self._emit("jmp", label=cond_block.label)
        self.loops.pop()
        self._start_block(cond_block)
        cond = self._lower_expr(stmt.cond)
        self._emit(
            "br",
            args=(cond,),
            true_label=body.label,
            false_label=exit_block.label,
            line=stmt.line,
        )
        self._start_block(exit_block)

    def _lower_for(self, stmt):
        self._rename_stack.append({})
        if stmt.init is not None:
            for init_stmt in stmt.init:
                self._lower_stmt(init_stmt)
        head = self.func.new_block()
        body = self.func.new_block()
        step_block = self.func.new_block()
        exit_block = self.func.new_block()
        self._emit("jmp", label=head.label, line=stmt.line)
        self._start_block(head)
        if stmt.cond is not None:
            cond = self._lower_expr(stmt.cond)
            self._emit(
                "br",
                args=(cond,),
                true_label=body.label,
                false_label=exit_block.label,
                line=stmt.line,
            )
        else:
            self._emit("jmp", label=body.label)
        self.loops.append(_LoopContext(exit_block.label, step_block.label))
        self._start_block(body)
        self._lower_block(stmt.body)
        if self.block.terminator is None:
            self._emit("jmp", label=step_block.label)
        self.loops.pop()
        self._start_block(step_block)
        if stmt.step is not None:
            self._lower_expr(stmt.step)
        self._emit("jmp", label=head.label)
        self._start_block(exit_block)
        self._rename_stack.pop()

    def _lower_return(self, stmt):
        if stmt.value is None:
            self._emit("ret", line=stmt.line)
        else:
            value = self._lower_expr(stmt.value)
            self._emit("ret", args=(value,), line=stmt.line)

    # -- expressions -----------------------------------------------------------

    def _lower_expr(self, expr):
        """Lower an expression; returns the temp holding its value."""
        method = getattr(self, "_lower_" + type(expr).__name__)
        return method(expr)

    def _lower_IntLit(self, expr):
        temp = self._temp()
        self._emit("const", dst=temp, value=expr.value, ctype=INT, line=expr.line)
        return temp

    def _lower_FloatLit(self, expr):
        temp = self._temp()
        self._emit(
            "const", dst=temp, value=float(expr.value), ctype=FLOAT, line=expr.line
        )
        return temp

    def _lower_Name(self, expr):
        name, scope = self._resolve(expr.name)
        temp = self._temp()
        self._emit(
            "ld", dst=temp, var=name, scope=scope, ctype=expr.ctype, line=expr.line
        )
        return temp

    def _lower_Index(self, expr):
        index = self._lower_expr(expr.index)
        name, scope = self._resolve(expr.base.name)
        temp = self._temp()
        self._emit(
            "ldx",
            dst=temp,
            args=(index,),
            var=name,
            scope=scope,
            ctype=expr.ctype,
            line=expr.line,
        )
        return temp

    def _lower_Cast(self, expr):
        source = self._lower_expr(expr.operand)
        if expr.operand.ctype == expr.target:
            return source
        temp = self._temp()
        self._emit(
            "cast",
            dst=temp,
            args=(source,),
            from_type=expr.operand.ctype,
            to_type=expr.target,
            ctype=expr.target,
            line=expr.line,
        )
        return temp

    def _lower_UnOp(self, expr):
        operand = self._lower_expr(expr.operand)
        temp = self._temp()
        self._emit(
            "un",
            dst=temp,
            args=(operand,),
            op=expr.op,
            ctype=expr.ctype,
            line=expr.line,
        )
        return temp

    def _lower_BinOp(self, expr):
        if expr.op in ("&&", "||"):
            return self._lower_short_circuit(expr)
        left = self._lower_expr(expr.left)
        right = self._lower_expr(expr.right)
        temp = self._temp()
        # Comparisons compute on the operand type but produce an int.
        operand_type = expr.left.ctype
        self._emit(
            "bin",
            dst=temp,
            args=(left, right),
            op=expr.op,
            ctype=operand_type,
            result_type=expr.ctype,
            line=expr.line,
        )
        return temp

    def _lower_short_circuit(self, expr):
        result_var = self._synth_local(INT)
        rhs_block = self.func.new_block()
        join_block = self.func.new_block()
        left = self._lower_expr(expr.left)
        left_bool = self._temp()
        zero = self._temp()
        self._emit("const", dst=zero, value=0, ctype=INT, line=expr.line)
        self._emit(
            "bin",
            dst=left_bool,
            args=(left, zero),
            op="!=",
            ctype=INT,
            result_type=INT,
            line=expr.line,
        )
        self._emit(
            "st", args=(left_bool,), var=result_var, scope="local", ctype=INT,
            line=expr.line,
        )
        if expr.op == "&&":
            true_label, false_label = rhs_block.label, join_block.label
        else:
            true_label, false_label = join_block.label, rhs_block.label
        self._emit(
            "br",
            args=(left_bool,),
            true_label=true_label,
            false_label=false_label,
            line=expr.line,
        )
        self._start_block(rhs_block)
        right = self._lower_expr(expr.right)
        right_bool = self._temp()
        zero2 = self._temp()
        self._emit("const", dst=zero2, value=0, ctype=INT, line=expr.line)
        self._emit(
            "bin",
            dst=right_bool,
            args=(right, zero2),
            op="!=",
            ctype=INT,
            result_type=INT,
            line=expr.line,
        )
        self._emit(
            "st", args=(right_bool,), var=result_var, scope="local", ctype=INT,
            line=expr.line,
        )
        self._emit("jmp", label=join_block.label)
        self._start_block(join_block)
        temp = self._temp()
        self._emit(
            "ld", dst=temp, var=result_var, scope="local", ctype=INT, line=expr.line
        )
        return temp

    def _lower_Cond(self, expr):
        result_var = self._synth_local(expr.ctype, hint="sel")
        cond = self._lower_expr(expr.cond)
        then_block = self.func.new_block()
        else_block = self.func.new_block()
        join_block = self.func.new_block()
        self._emit(
            "br",
            args=(cond,),
            true_label=then_block.label,
            false_label=else_block.label,
            line=expr.line,
        )
        self._start_block(then_block)
        then_value = self._lower_expr(expr.then)
        self._emit(
            "st", args=(then_value,), var=result_var, scope="local",
            ctype=expr.ctype, line=expr.line,
        )
        self._emit("jmp", label=join_block.label)
        self._start_block(else_block)
        other_value = self._lower_expr(expr.other)
        self._emit(
            "st", args=(other_value,), var=result_var, scope="local",
            ctype=expr.ctype, line=expr.line,
        )
        self._emit("jmp", label=join_block.label)
        self._start_block(join_block)
        temp = self._temp()
        self._emit(
            "ld", dst=temp, var=result_var, scope="local", ctype=expr.ctype,
            line=expr.line,
        )
        return temp

    def _lower_Assign(self, expr):
        target = expr.target
        if isinstance(target, cast.Name):
            name, scope = self._resolve(target.name)
            if expr.op == "=":
                value = self._lower_expr(expr.value)
            else:
                current = self._temp()
                self._emit(
                    "ld", dst=current, var=name, scope=scope,
                    ctype=target.ctype, line=expr.line,
                )
                value = self._compound_value(expr, current)
            self._emit(
                "st", args=(value,), var=name, scope=scope, ctype=target.ctype,
                line=expr.line,
            )
            return value
        # Array element target: evaluate index once (C evaluates lvalue once).
        index = self._lower_expr(target.index)
        name, scope = self._resolve(target.base.name)
        if expr.op == "=":
            value = self._lower_expr(expr.value)
        else:
            current = self._temp()
            self._emit(
                "ldx", dst=current, args=(index,), var=name, scope=scope,
                ctype=target.ctype, line=expr.line,
            )
            value = self._compound_value(expr, current)
        self._emit(
            "stx", args=(index, value), var=name, scope=scope,
            ctype=target.ctype, line=expr.line,
        )
        return value

    def _compound_value(self, expr, current):
        rhs = self._lower_expr(expr.value)
        temp = self._temp()
        self._emit(
            "bin",
            dst=temp,
            args=(current, rhs),
            op=expr.op[:-1],
            ctype=expr.target.ctype,
            result_type=expr.target.ctype,
            line=expr.line,
        )
        return temp

    def _lower_Call(self, expr):
        from ..cfrontend.semantic import COMM_BUILTINS

        if expr.name in COMM_BUILTINS:
            chan = self._lower_expr(expr.args[0])
            count = self._lower_expr(expr.args[2])
            name, scope = self._resolve(expr.args[1].name)
            self._emit(
                "comm",
                args=(chan, count),
                kind=expr.name,
                var=name,
                scope=scope,
                line=expr.line,
            )
            return None
        func_info = self.program_info.functions[expr.name]
        scalar_temps = []
        arg_spec = []
        for arg, param in zip(expr.args, func_info.params):
            if is_array(param.ctype):
                name, scope = self._resolve(arg.name)
                arg_spec.append(("array", name, scope))
            else:
                temp = self._lower_expr(arg)
                arg_spec.append(("temp", len(scalar_temps)))
                scalar_temps.append(temp)
        dst = None
        if func_info.ret_type != VOID:
            dst = self._temp()
        self._emit(
            "call",
            dst=dst,
            args=tuple(scalar_temps),
            func=expr.name,
            arg_spec=arg_spec,
            ctype=func_info.ret_type,
            line=expr.line,
        )
        return dst
