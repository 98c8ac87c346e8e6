"""Timed code generation: annotated IR → native Python process code.

This is the paper's "timed C code generation" step (Section 4.3): after the
estimation engine annotates every basic block with its delay, the code
generator emits natively-executable source with a ``wait(delay)`` call at the
end of each block.  The paper emits C via the LLVM code-generation API and
compiles it with the host compiler; here we emit Python and ``compile()`` it,
which is "native" relative to this repo's interpreted baselines (the IR
interpreter and the R32 ISS) in exactly the way the paper's compiled TLM is
native relative to an interpreting ISS.

The CFG is emitted in label-dispatch form (a ``while`` loop over a block
index).  With ``optimize=True`` (the default) the emitter additionally
applies a set of strictly semantics-preserving rewrites that matter for the
paper's Table-1 speed claim:

* **temp fusion** — a temp consumed exactly once is inlined into its
  consumer instead of being assigned, with flush-on-conflict around stores,
  calls and communications so observable ordering is preserved;
* **wrap-once arithmetic** — the 32-bit wrap mask is applied at observable
  uses (stores, indices, comparisons, division, returns …) instead of after
  every ``+``/``-``/``*``, exploiting that two's-complement wrapping is a
  ring homomorphism over ``+ - * << & | ^ ~``;
* **block merging** — single-predecessor blocks are inlined into their
  predecessor, and the remaining dispatch heads are selected by a binary
  comparison tree instead of a linear ``if/elif`` chain;
* **global hoisting** — global array bindings (never reassigned) and
  never-stored global scalars are loaded into locals at function entry;
* **delay accumulation** — at transaction granularity, per-block
  ``ctx.wait`` calls are coalesced into a local accumulator flushed at
  calls, communications and returns (where the sum first becomes
  observable).

Processes run as generator processes of the simulation kernel, so every
function that can suspend (reaches a ``comm``, or carries delays under
per-block/quantum sync) is emitted as a generator function, chained with
``yield from``; everything else stays a plain call.  A comm-free program
at transaction granularity therefore has no generator function at all and
can be called directly, without a kernel.  ``optimize=False`` reproduces
the original linear emission and serves as the equivalence baseline.
"""

from __future__ import annotations

from ..cfrontend.ctypes_ import FLOAT, INT, is_array
from ..cdfg.ir import global_storage

_WRAP = "(((%s) + 2147483648) & 4294967295) - 2147483648"

_INT_WRAPPING_OPS = {"+", "-", "*"}

_CMP_OPS = {"==", "!=", "<", ">", "<=", ">="}

#: Branch-target inlining depth cap: CPython refuses deeply indented code,
#: and the dispatch tree plus the function scaffold add their own levels.
_MAX_BRANCH_DEPTH = 8

#: Conservative alias bucket: any array element (arrays may alias through
#: parameter passing, so array reads conflict with every array write).
_ARRAYS = "[]"


class CodegenError(Exception):
    """Raised when the IR cannot be emitted (should not happen for IR built
    by :mod:`repro.cdfg.builder`)."""


class GeneratedProgram:
    """A compiled generated module plus its metadata."""

    def __init__(self, source, namespace, ir_program, timed,
                 granularity="transaction", optimize=True,
                 suspending=frozenset()):
        self.source = source
        self.namespace = namespace
        self.ir_program = ir_program
        self.timed = timed
        self.granularity = granularity
        self.optimize = optimize
        #: names of functions emitted as generator functions
        self.suspending = frozenset(suspending)

    def entry(self, func_name):
        """The generated callable for ``func_name``.

        Signature: ``fn(ctx, glob, *scalar_or_array_args)``.  Functions in
        :attr:`suspending` are generator functions and must be driven (or
        ``yield from``-ed) rather than called for effect.
        """
        return self.namespace["f_" + func_name]

    def is_suspending(self, func_name):
        """True when ``func_name`` was emitted as a generator function."""
        return func_name in self.suspending

    def fresh_globals(self):
        """A fresh global-variable store for one process instance."""
        return global_storage(self.ir_program)


def generate_source(ir_program, timed=True, granularity="transaction",
                    optimize=True):
    """Emit Python source for every function of ``ir_program``.

    When ``timed`` is true every basic block must carry an annotated delay
    (run the annotator first); blocks with delay 0 emit no wait call.
    ``granularity`` only affects how waits are emitted (``"block"`` and
    ``"quantum"`` sync inside the process, so suspension is emitted at each
    wait site); the cycle accounting is identical for every setting.
    """
    cfg = _EmitConfig(ir_program, timed, granularity, optimize)
    writer = _Writer()
    writer.line("# Generated by repro.codegen.pygen — do not edit.")
    writer.line("from repro.codegen.runtime import c_div, c_rem, c_f2i")
    writer.line("")
    for name in ir_program.functions:
        _emit_function(writer, ir_program.function(name), cfg)
        writer.line("")
    return writer.text()


def generate_program(ir_program, timed=True, module_name="<generated-tlm>",
                     granularity="transaction", optimize=True):
    """Generate and compile the program; returns a :class:`GeneratedProgram`."""
    source = generate_source(
        ir_program, timed, granularity=granularity, optimize=optimize,
    )
    return program_from_source(
        source, ir_program, timed=timed, module_name=module_name,
        granularity=granularity, optimize=optimize,
    )


def program_from_source(source, ir_program, timed=True,
                        module_name="<generated-tlm>",
                        granularity="transaction", optimize=True,
                        suspending=None, code=None):
    """Instantiate a :class:`GeneratedProgram` from already-generated source.

    The artifact pipeline (:mod:`repro.tlm.generator`) caches generated
    source and compiled code objects separately; this is the assembly step
    it shares with :func:`generate_program`.  ``code`` (optional) skips the
    ``compile()`` for an already-compiled module; ``suspending`` (optional)
    skips recomputing the generator-function set.
    """
    if code is None:
        code = compile(source, module_name, "exec")
    namespace = {}
    exec(code, namespace)  # noqa: S102 - executing our own generated code
    if suspending is None:
        suspending = suspending_functions(ir_program, timed, granularity)
    return GeneratedProgram(
        source, namespace, ir_program, timed,
        granularity=granularity, optimize=optimize,
        suspending=frozenset(suspending),
    )


class _Writer:
    def __init__(self):
        self._lines = []
        self._indent = 0

    def line(self, text=""):
        if text:
            self._lines.append("    " * self._indent + text)
        else:
            self._lines.append("")

    def push(self):
        self._indent += 1

    def pop(self):
        self._indent -= 1

    def splice(self, lines):
        """Append pre-rendered lines, shifted to the current indent."""
        prefix = "    " * self._indent
        for line in lines:
            self._lines.append(prefix + line if line else "")

    def text(self):
        return "\n".join(self._lines) + "\n"


def suspending_functions(ir_program, timed=False, granularity="transaction"):
    """Functions that can reach a kernel suspension point.

    A function suspends directly when it contains a ``comm`` op, or — under
    per-block/quantum sync — when any of its blocks carries a nonzero
    delay.  Suspension propagates to callers through the call graph.  With
    the defaults this is the set of functions that can reach a ``comm`` op.
    """
    per_block_sync = timed and granularity in ("block", "quantum")
    suspends = set()
    callees_of = {}
    for name in ir_program.functions:
        func = ir_program.function(name)
        callees = set()
        direct = False
        for block in func.blocks:
            for op in block.body:
                if op.opcode == "comm":
                    direct = True
                elif op.opcode == "call":
                    callees.add(op.attrs["func"])
            if per_block_sync and block.delay:
                direct = True
        callees_of[name] = callees
        if direct:
            suspends.add(name)
    changed = True
    while changed:
        changed = False
        for name, callees in callees_of.items():
            if name not in suspends and callees & suspends:
                suspends.add(name)
                changed = True
    return frozenset(suspends)


class _EmitConfig:
    """Program-wide emission settings shared by every function."""

    def __init__(self, ir_program, timed, granularity, optimize):
        self.timed = timed
        self.granularity = granularity
        self.optimize = optimize
        self.per_block_sync = timed and granularity in ("block", "quantum")
        self.suspending = suspending_functions(ir_program, timed, granularity)
        # Global scalars written anywhere in the program can never be
        # hoisted to function-entry reads.
        stored = set()
        for name in ir_program.functions:
            for block in ir_program.function(name).blocks:
                for op in block.body:
                    if op.opcode == "st" and op.attrs["scope"] == "global":
                        stored.add(op.attrs["var"])
        self.stored_globals = stored


def _emit_function(writer, func, cfg):
    params = ", ".join("a_" + name for name, _ in func.params)
    head = "def f_%s(ctx, glob%s):" % (
        func.name, (", " + params) if params else ""
    )
    writer.line(head)
    writer.push()
    fe = _FuncEmit(func, cfg)
    fe.emit_prologue(writer)
    if len(func.blocks) == 1:
        fe.emit_single_block(writer)
    else:
        writer.line("bb = %d" % func.blocks[0].label)
        writer.line("while True:")
        writer.push()
        if cfg.optimize:
            order, chunks = fe.plan_chains()
            fe.emit_dispatch(writer, order, chunks)
        else:
            for i, block in enumerate(func.blocks):
                writer.line("%s bb == %d:" % (
                    "if" if i == 0 else "elif", block.label
                ))
                writer.push()
                fe.emit_seed_block(writer, block)
                writer.pop()
        writer.pop()
    writer.pop()


class _Pending:
    """A fused (not yet materialised) temp value."""

    __slots__ = ("expr", "bool_expr", "reads", "unwrapped")

    def __init__(self, expr, reads, unwrapped, bool_expr=None):
        self.expr = expr
        self.bool_expr = bool_expr
        self.reads = reads
        self.unwrapped = unwrapped


class _FuncEmit:
    """Per-function emission state (fusion, hoisting, chain planning)."""

    def __init__(self, func, cfg):
        self.func = func
        self.cfg = cfg
        self.blocks = {b.label: b for b in func.blocks}
        self.preds = {}
        for block in func.blocks:
            term = block.terminator
            if term is None:
                continue
            if term.opcode == "jmp":
                targets = (term.attrs["label"],)
            elif term.opcode == "br":
                targets = (term.attrs["true_label"], term.attrs["false_label"])
            else:
                targets = ()
            for t in targets:
                self.preds[t] = self.preds.get(t, 0) + 1
        # Transaction-granularity delay accumulator (optimized mode only,
        # and only when the function actually carries delays).
        self.use_acc = (
            cfg.optimize and cfg.timed and not cfg.per_block_sync
            and any(b.delay for b in func.blocks)
        )
        self.temp_uses = {}
        for block in func.blocks:
            ops = list(block.body)
            if block.terminator is not None:
                ops.append(block.terminator)
            for op in ops:
                for t in op.args:
                    self.temp_uses[t] = self.temp_uses.get(t, 0) + 1
        self._plan_hoists()
        self.pending = {}
        self.const_val = {}
        self.head_set = set()
        self._jump_targets = set()

    # -- hoisting ------------------------------------------------------------

    def _plan_hoists(self):
        """Select global names loaded into locals at function entry."""
        self.hoisted = {}
        if not self.cfg.optimize:
            return
        array_uses = {}
        scalar_uses = {}
        for block in self.func.blocks:
            for op in block.body:
                scope = op.attrs.get("scope")
                var = op.attrs.get("var")
                if scope == "global":
                    if op.opcode in ("ldx", "stx", "comm"):
                        array_uses[var] = array_uses.get(var, 0) + 1
                    elif op.opcode == "ld":
                        scalar_uses[var] = scalar_uses.get(var, 0) + 1
                if op.opcode == "call":
                    for spec in op.attrs["arg_spec"]:
                        if spec[0] != "temp" and spec[2] == "global":
                            array_uses[spec[1]] = array_uses.get(spec[1], 0)
        for var, n in array_uses.items():
            if n >= 2:
                self.hoisted[var] = "g_" + var
        for var, n in scalar_uses.items():
            if n >= 2 and var not in self.cfg.stored_globals:
                self.hoisted[var] = "g_" + var

    def emit_prologue(self, writer):
        func = self.func
        param_names = {name for name, _ in func.params}
        for name, ctype in func.params:
            writer.line("v_%s = a_%s" % (name, name))
        for name, ctype in func.locals.items():
            if name in param_names:
                continue
            if is_array(ctype):
                init = func.local_array_inits.get(name)
                if init is not None:
                    values = list(init)
                    pad = ctype.size - len(values)
                    if pad:
                        values = values + (
                            [0.0 if ctype.elem == FLOAT else 0] * pad
                        )
                    writer.line("v_%s = %r" % (name, values))
                else:
                    zero = "0.0" if ctype.elem == FLOAT else "0"
                    writer.line("v_%s = [%s] * %d" % (name, zero, ctype.size))
            else:
                writer.line(
                    "v_%s = %s" % (name, "0.0" if ctype == FLOAT else "0")
                )
        for var in sorted(self.hoisted):
            writer.line('%s = glob["%s"]' % (self.hoisted[var], var))
        if self.use_acc:
            writer.line("_d = 0")

    # -- seed-shape (unoptimized) emission ------------------------------------

    def emit_seed_block(self, writer, block, dispatch=True):
        """The original linear emission, extended only for suspension."""
        wait_stmt = self._wait_lines(block)
        emitted = False
        for op in block.body:
            for line in self._seed_op_lines(op):
                writer.line(line)
            emitted = True
        for line in wait_stmt:
            writer.line(line)
            emitted = True
        term = block.terminator
        if term is None:
            raise CodegenError(
                "block %s of %s lacks a terminator" % (block.label, self.func.name)
            )
        if term.opcode == "jmp":
            if dispatch:
                writer.line("bb = %d" % term.attrs["label"])
                writer.line("continue")
        elif term.opcode == "br":
            writer.line("if t%d != 0:" % term.args[0])
            writer.push()
            writer.line("bb = %d" % term.attrs["true_label"])
            writer.pop()
            writer.line("else:")
            writer.push()
            writer.line("bb = %d" % term.attrs["false_label"])
            writer.pop()
            writer.line("continue")
        elif term.opcode == "ret":
            if term.args:
                writer.line("return t%d" % term.args[0])
            else:
                writer.line("return None")
        if not emitted and term.opcode not in ("jmp", "br", "ret"):
            writer.line("pass")

    def _seed_op_lines(self, op):
        opcode = op.opcode
        attrs = op.attrs
        if opcode == "const":
            return ["t%d = %r" % (op.dst, attrs["value"])]
        if opcode == "ld":
            return ["t%d = %s" % (op.dst, _plain_ref(op))]
        if opcode == "st":
            return ["%s = t%d" % (_plain_ref(op), op.args[0])]
        if opcode == "ldx":
            return ["t%d = %s[t%d]" % (op.dst, _plain_ref(op), op.args[0])]
        if opcode == "stx":
            return ["%s[t%d] = t%d" % (_plain_ref(op), op.args[0], op.args[1])]
        if opcode == "bin":
            return ["t%d = %s" % (op.dst, _binop_expr(op))]
        if opcode == "un":
            return ["t%d = %s" % (op.dst, _unop_expr(op))]
        if opcode == "cast":
            if attrs["to_type"] == INT:
                return ["t%d = c_f2i(t%d)" % (op.dst, op.args[0])]
            return ["t%d = float(t%d)" % (op.dst, op.args[0])]
        if opcode == "call":
            args = []
            for spec in attrs["arg_spec"]:
                if spec[0] == "temp":
                    args.append("t%d" % op.args[spec[1]])
                else:
                    _, var, scope = spec
                    if scope == "global":
                        args.append('glob["%s"]' % var)
                    else:
                        args.append("v_%s" % var)
            call = "f_%s(ctx, glob%s)" % (
                attrs["func"], (", " + ", ".join(args)) if args else ""
            )
            if attrs["func"] in self.cfg.suspending:
                call = "yield from " + call
            if op.dst is not None:
                return ["t%d = %s" % (op.dst, call)]
            return [call]
        if opcode == "comm":
            buf = _plain_ref(op)
            if attrs["kind"] == "send":
                return ["yield from ctx.send_gen(t%d, %s[:t%d])" % (
                    op.args[0], buf, op.args[1]
                )]
            return ["%s[:t%d] = yield from ctx.recv_gen(t%d, t%d)" % (
                buf, op.args[1], op.args[0], op.args[1]
            )]
        raise CodegenError("cannot emit opcode %r" % opcode)

    def _wait_lines(self, block):
        """Lines charging the block's annotated delay (may be empty)."""
        if not self.cfg.timed:
            return []
        if block.delay is None:
            raise CodegenError(
                "block %s of %s has no annotated delay (timed codegen needs "
                "the annotator to run first)" % (block.label, self.func.name)
            )
        if not block.delay:
            return []
        if self.use_acc:
            return ["_d += %d" % block.delay]
        if self.cfg.per_block_sync:
            return [
                "if ctx.wait(%d):" % block.delay,
                "    yield from ctx.sync_gen()",
            ]
        return ["ctx.wait(%d)" % block.delay]

    # -- optimized emission: chain planning -----------------------------------

    def emit_single_block(self, writer):
        block = self.func.blocks[0]
        if self.cfg.optimize:
            emitted = set()
            self.emit_chain(writer, block.label, 0, emitted, None, loop=False)
        else:
            self.emit_seed_block(writer, block, dispatch=False)

    def plan_chains(self):
        """Group blocks into single-entry chains; returns (heads, chunks).

        Chains start at the entry block and at every block with more than
        one predecessor; single-predecessor blocks are inlined into their
        unique predecessor, except when the branch-nesting cap demotes them
        to fresh heads.
        """
        entry = self.func.blocks[0].label
        self.head_set = {entry}
        for block in self.func.blocks:
            if self.preds.get(block.label, 0) != 1:
                self.head_set.add(block.label)
        queue = [entry] + [
            b.label for b in self.func.blocks
            if b.label != entry and b.label in self.head_set
        ]
        emitted = set()
        chunks = {}
        i = 0
        while i < len(queue):
            label = queue[i]
            i += 1
            sub = _Writer()
            self.emit_chain(sub, label, 0, emitted, queue, loop=True)
            chunks[label] = sub._lines
        stray = self._jump_targets - self.head_set
        if stray:
            raise CodegenError(
                "internal: jump to merged block(s) %s in %s"
                % (sorted(stray), self.func.name)
            )
        return queue, chunks

    def emit_dispatch(self, writer, order, chunks):
        labels = sorted(order)

        def rec(lo, hi):
            if hi - lo == 1:
                writer.line("# bb %d" % labels[lo])
                writer.splice(chunks[labels[lo]])
                return
            mid = (lo + hi) // 2
            writer.line("if bb < %d:" % labels[mid])
            writer.push()
            rec(lo, mid)
            writer.pop()
            writer.line("else:")
            writer.push()
            rec(mid, hi)
            writer.pop()

        rec(0, len(labels))

    def _can_inline(self, label, emitted):
        return (
            self.preds.get(label, 0) == 1
            and label not in self.head_set
            and label not in emitted
        )

    def _demote(self, label, queue):
        if label not in self.head_set:
            self.head_set.add(label)
            queue.append(label)

    def _goto(self, w, label):
        self._jump_targets.add(label)
        w.line("bb = %d" % label)
        w.line("continue")

    def emit_chain(self, w, label, depth, emitted, queue, loop):
        while True:
            emitted.add(label)
            block = self.blocks[label]
            self.emit_block_ops(w, block)
            term = block.terminator
            if term is None:
                raise CodegenError(
                    "block %s of %s lacks a terminator"
                    % (block.label, self.func.name)
                )
            if term.opcode == "ret":
                self.emit_ret(w, term)
                return
            if term.opcode == "jmp":
                target = term.attrs["label"]
                if not loop:
                    return  # single-block functions cannot contain jumps
                if self._can_inline(target, emitted):
                    label = target
                    continue
                self._goto(w, target)
                return
            if term.opcode != "br":
                raise CodegenError("cannot emit terminator %r" % term.opcode)
            cond = self.consume_bool(term.args[0])
            t_lab = term.attrs["true_label"]
            f_lab = term.attrs["false_label"]
            if self._can_inline(t_lab, emitted) and depth < _MAX_BRANCH_DEPTH:
                w.line("if %s:" % cond)
                w.push()
                self.emit_chain(w, t_lab, depth + 1, emitted, queue, loop)
                w.pop()
                if self._can_inline(f_lab, emitted):
                    label = f_lab
                    continue
                self._goto(w, f_lab)
                return
            if self._can_inline(f_lab, emitted) and depth < _MAX_BRANCH_DEPTH:
                w.line("if %s:" % cond)
                w.push()
                self._goto(w, t_lab)
                w.pop()
                self._demote(t_lab, queue)
                label = f_lab
                continue
            w.line("if %s:" % cond)
            w.push()
            w.line("bb = %d" % t_lab)
            w.pop()
            w.line("else:")
            w.push()
            w.line("bb = %d" % f_lab)
            w.pop()
            w.line("continue")
            self._jump_targets.add(t_lab)
            self._jump_targets.add(f_lab)
            self._demote(t_lab, queue)
            self._demote(f_lab, queue)
            return

    # -- optimized emission: block bodies with fusion --------------------------

    def emit_block_ops(self, w, block):
        for op in block.body:
            self.emit_op(w, op)
        for line in self._wait_lines(block):
            w.line(line)
        term = block.terminator
        keep = set(term.args) if term is not None else set()
        self.drain(w, keep)

    def drain(self, w, keep=()):
        """Materialise leftover pending temps (in definition order)."""
        if not self.pending:
            return
        for t in list(self.pending):
            if t in keep:
                continue
            self._flush_one(w, t)

    def _flush_one(self, w, t):
        e = self.pending.pop(t)
        expr = _WRAP % e.expr if e.unwrapped else e.expr
        w.line("t%d = %s" % (t, expr))

    def _flush_reading(self, w, loc):
        for t in [t for t, e in self.pending.items() if loc in e.reads]:
            self._flush_one(w, t)

    def _flush_all(self, w):
        for t in list(self.pending):
            self._flush_one(w, t)

    def stage(self, w, dst, expr, reads, unwrapped, bool_expr=None):
        """Defer a pure value: fuse if consumed exactly once, else assign."""
        if self.temp_uses.get(dst, 0) == 1:
            self.pending[dst] = _Pending(expr, reads, unwrapped, bool_expr)
        else:
            w.line("t%d = %s" % (dst, _WRAP % expr if unwrapped else expr))

    def consume(self, t, want):
        """Expression for temp ``t``; returns (expr, reads, unwrapped).

        ``want`` is ``"wrapped"`` (value must be an observable in-range
        32-bit value) or ``"ring"`` (value feeds a wrap-compatible operator,
        so the wrap may stay deferred).
        """
        e = self.pending.pop(t, None)
        if e is not None:
            if want == "ring":
                return "(%s)" % e.expr, e.reads, e.unwrapped
            expr = _WRAP % e.expr if e.unwrapped else e.expr
            return "(%s)" % expr, e.reads, False
        lit = self.const_val.get(t)
        if lit is not None:
            return "(%s)" % lit, frozenset(), False
        return "t%d" % t, frozenset(), False

    def consume_bool(self, t):
        """Branch-condition expression for temp ``t``."""
        e = self.pending.pop(t, None)
        if e is not None:
            if e.bool_expr is not None:
                return e.bool_expr
            expr = _WRAP % e.expr if e.unwrapped else e.expr
            return "(%s) != 0" % expr
        lit = self.const_val.get(t)
        if lit is not None:
            return "(%s) != 0" % lit
        return "t%d != 0" % t

    def var_ref(self, var, scope):
        """(expression, read-location) for a scalar variable access."""
        if scope == "global":
            local = self.hoisted.get(var)
            if local is not None:
                return local, ("g", var)
            return 'glob["%s"]' % var, ("g", var)
        return "v_%s" % var, ("l", var)

    def array_ref(self, var, scope):
        if scope == "global":
            return self.hoisted.get(var) or 'glob["%s"]' % var
        return "v_%s" % var

    def _flush_delay(self, w):
        """Apply the accumulated delay before a timing-observable point."""
        if self.use_acc:
            w.line("if _d: ctx.wait(_d); _d = 0")

    def emit_ret(self, w, term):
        if term.args:
            val, _, _ = self.consume(term.args[0], "wrapped")
        else:
            val = "None"
        self._flush_all(w)
        if self.use_acc:
            w.line("if _d: ctx.wait(_d)")
        w.line("return %s" % val)

    def emit_op(self, w, op):
        opcode = op.opcode
        attrs = op.attrs
        if opcode == "const":
            self.const_val[op.dst] = repr(attrs["value"])
            return
        if opcode == "ld":
            ref, loc = self.var_ref(attrs["var"], attrs["scope"])
            self.stage(w, op.dst, ref, frozenset((loc,)), False)
            return
        if opcode == "st":
            ref, loc = self.var_ref(attrs["var"], attrs["scope"])
            if attrs["scope"] == "global":
                ref = 'glob["%s"]' % attrs["var"]  # stores bypass hoisting
            val, _, _ = self.consume(op.args[0], "wrapped")
            self._flush_reading(w, loc)
            w.line("%s = %s" % (ref, val))
            return
        if opcode == "ldx":
            idx, reads, _ = self.consume(op.args[0], "wrapped")
            ref = self.array_ref(attrs["var"], attrs["scope"])
            self.stage(
                w, op.dst, "%s[%s]" % (ref, idx),
                frozenset(reads) | {_ARRAYS}, False,
            )
            return
        if opcode == "stx":
            idx, _, _ = self.consume(op.args[0], "wrapped")
            val, _, _ = self.consume(op.args[1], "wrapped")
            ref = self.array_ref(attrs["var"], attrs["scope"])
            self._flush_reading(w, _ARRAYS)
            w.line("%s[%s] = %s" % (ref, idx, val))
            return
        if opcode == "bin":
            self._emit_bin(w, op)
            return
        if opcode == "un":
            self._emit_un(w, op)
            return
        if opcode == "cast":
            a, reads, _ = self.consume(op.args[0], "wrapped")
            if attrs["to_type"] == INT:
                self.stage(w, op.dst, "c_f2i(%s)" % a, reads, False)
            else:
                self.stage(w, op.dst, "float(%s)" % a, reads, False)
            return
        if opcode == "call":
            args = []
            for spec in attrs["arg_spec"]:
                if spec[0] == "temp":
                    args.append(self.consume(op.args[spec[1]], "wrapped")[0])
                else:
                    _, var, scope = spec
                    args.append(self.array_ref(var, scope))
            self._flush_all(w)
            if self.cfg.timed:
                self._flush_delay(w)
            call = "f_%s(ctx, glob%s)" % (
                attrs["func"], (", " + ", ".join(args)) if args else ""
            )
            if attrs["func"] in self.cfg.suspending:
                call = "yield from " + call
            if op.dst is not None:
                w.line("t%d = %s" % (op.dst, call))
            else:
                w.line(call)
            return
        if opcode == "comm":
            chan = self.consume(op.args[0], "wrapped")[0]
            cnt_t = op.args[1]
            if cnt_t in self.pending:
                # the count appears twice in the emitted line
                self._flush_one(w, cnt_t)
            cnt = self.consume(cnt_t, "wrapped")[0]
            self._flush_all(w)
            if self.cfg.timed:
                self._flush_delay(w)
            buf = self.array_ref(attrs["var"], attrs["scope"])
            if attrs["kind"] == "send":
                w.line("yield from ctx.send_gen(%s, %s[:%s])" % (
                    chan, buf, cnt
                ))
            else:
                w.line("%s[:%s] = yield from ctx.recv_gen(%s, %s)" % (
                    buf, cnt, chan, cnt
                ))
            return
        raise CodegenError("cannot emit opcode %r" % opcode)

    def _emit_bin(self, w, op):
        kind = op.attrs["op"]
        ctype = op.attrs["ctype"]
        if kind in _CMP_OPS:
            a, ra, _ = self.consume(op.args[0], "wrapped")
            b, rb, _ = self.consume(op.args[1], "wrapped")
            self.stage(
                w, op.dst, "1 if %s %s %s else 0" % (a, kind, b),
                frozenset(ra) | frozenset(rb), False,
                bool_expr="%s %s %s" % (a, kind, b),
            )
            return
        if ctype == FLOAT:
            a, ra, _ = self.consume(op.args[0], "wrapped")
            b, rb, _ = self.consume(op.args[1], "wrapped")
            self.stage(
                w, op.dst, "%s %s %s" % (a, kind, b),
                frozenset(ra) | frozenset(rb), False,
            )
            return
        if kind in _INT_WRAPPING_OPS:
            a, ra, _ = self.consume(op.args[0], "ring")
            b, rb, _ = self.consume(op.args[1], "ring")
            self.stage(
                w, op.dst, "%s %s %s" % (a, kind, b),
                frozenset(ra) | frozenset(rb), True,
            )
            return
        if kind == "/":
            a, ra, _ = self.consume(op.args[0], "wrapped")
            b, rb, _ = self.consume(op.args[1], "wrapped")
            self.stage(
                w, op.dst, "c_div(%s, %s)" % (a, b),
                frozenset(ra) | frozenset(rb), False,
            )
            return
        if kind == "%":
            a, ra, _ = self.consume(op.args[0], "wrapped")
            b, rb, _ = self.consume(op.args[1], "wrapped")
            self.stage(
                w, op.dst, "c_rem(%s, %s)" % (a, b),
                frozenset(ra) | frozenset(rb), False,
            )
            return
        if kind == "<<":
            a, ra, _ = self.consume(op.args[0], "ring")
            b, rb, _ = self.consume(op.args[1], "ring")
            self.stage(
                w, op.dst, "%s << (%s & 31)" % (a, b),
                frozenset(ra) | frozenset(rb), True,
            )
            return
        if kind == ">>":
            a, ra, _ = self.consume(op.args[0], "wrapped")
            b, rb, _ = self.consume(op.args[1], "ring")
            self.stage(
                w, op.dst, "%s >> (%s & 31)" % (a, b),
                frozenset(ra) | frozenset(rb), False,
            )
            return
        if kind in ("&", "|", "^"):
            a, ra, ua = self.consume(op.args[0], "ring")
            b, rb, ub = self.consume(op.args[1], "ring")
            self.stage(
                w, op.dst, "%s %s %s" % (a, kind, b),
                frozenset(ra) | frozenset(rb), ua or ub,
            )
            return
        raise CodegenError("cannot emit binary op %r" % kind)

    def _emit_un(self, w, op):
        kind = op.attrs["op"]
        if kind == "-":
            if op.attrs["ctype"] == FLOAT:
                a, ra, _ = self.consume(op.args[0], "wrapped")
                self.stage(w, op.dst, "-%s" % a, frozenset(ra), False)
            else:
                a, ra, _ = self.consume(op.args[0], "ring")
                self.stage(w, op.dst, "-%s" % a, frozenset(ra), True)
            return
        if kind == "!":
            a, ra, _ = self.consume(op.args[0], "wrapped")
            self.stage(
                w, op.dst, "1 if %s == 0 else 0" % a, frozenset(ra), False,
                bool_expr="%s == 0" % a,
            )
            return
        if kind == "~":
            a, ra, ua = self.consume(op.args[0], "ring")
            self.stage(w, op.dst, "~%s" % a, frozenset(ra), ua)
            return
        raise CodegenError("cannot emit unary op %r" % kind)


def _plain_ref(op):
    """Python lvalue/rvalue expression for the op's variable (seed shape)."""
    if op.attrs["scope"] == "global":
        return 'glob["%s"]' % op.attrs["var"]
    return "v_%s" % op.attrs["var"]


def _binop_expr(op):
    kind = op.attrs["op"]
    ctype = op.attrs["ctype"]
    a = "t%d" % op.args[0]
    b = "t%d" % op.args[1]
    if kind in _CMP_OPS:
        return "1 if %s %s %s else 0" % (a, kind, b)
    if ctype == FLOAT:
        return "%s %s %s" % (a, kind, b)
    # Integer arithmetic with 32-bit wrap-around semantics.
    if kind in _INT_WRAPPING_OPS:
        return _WRAP % ("%s %s %s" % (a, kind, b))
    if kind == "/":
        return "c_div(%s, %s)" % (a, b)
    if kind == "%":
        return "c_rem(%s, %s)" % (a, b)
    if kind == "<<":
        return _WRAP % ("%s << (%s & 31)" % (a, b))
    if kind == ">>":
        return "%s >> (%s & 31)" % (a, b)
    if kind in ("&", "|", "^"):
        return "%s %s %s" % (a, kind, b)
    raise CodegenError("cannot emit binary op %r" % kind)


def _unop_expr(op):
    kind = op.attrs["op"]
    a = "t%d" % op.args[0]
    if kind == "-":
        if op.attrs["ctype"] == FLOAT:
            return "-%s" % a
        return _WRAP % ("-%s" % a)
    if kind == "!":
        return "1 if %s == 0 else 0" % a
    if kind == "~":
        return "~%s" % a  # in-range for 32-bit two's-complement inputs
    raise CodegenError("cannot emit unary op %r" % kind)
