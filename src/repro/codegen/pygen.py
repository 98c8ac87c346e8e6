"""Timed code generation: annotated IR → native Python process code.

This is the paper's "timed C code generation" step (Section 4.3): after the
estimation engine annotates every basic block with its delay, the code
generator emits natively-executable source that charges each block's delay.
The paper emits C via the LLVM code-generation API and compiles it with the
host compiler; here we emit Python and ``compile()`` it, which is "native"
relative to this repo's interpreted baselines (the IR interpreter and the
R32 ISS) in exactly the way the paper's compiled TLM is native relative to
an interpreting ISS.

There are three emissions of one program, chosen by the ``timed`` argument:

* **functional** (``False``) — the computation and its communication only;
* **timed** (``True``) — charges every block's annotated delay;
* **counting** (:data:`COUNT`) — counts every block's executions, zero-delay
  blocks included, where the timed emission charges delays: the delay
  algebra below runs on block multisets instead of cycle counts, and each
  place the timed code adds to ``_d`` adds to one count of ``ctx.counts``
  instead, a *site* whose block multiset is a constant of the module
  (``_SITES``; :meth:`GeneratedProgram.block_counts` expands them).  It
  reads no delay, so one module serves every PUM, and it suspends only at
  ``comm``, like the functional code.  A block is counted as it starts
  and ``ctx.counts`` is a dict, whose keys keep the order in which sites
  first counted: a function's first count precedes its callees', so
  functions come out in the order of their first call, as they do from
  the reference interpreter.  The static estimator profiles applications
  with it (:mod:`repro.estimation.staticest`).

Each function is emitted in *structured* form, doing the work the paper's
host compiler does for it:

* **loop recovery** — natural loops are found from dominators and back
  edges, and the CFG (reducible: CMini has no ``goto`` or ``switch``) is
  emitted as nested ``while``/``if`` statements with ``break``/``continue``;
  a C ``continue`` to a ``for`` step re-emits the step before Python's
  ``continue``;
* **counted loops** — a loop ``for (v = a; v < b; v += s)`` over an
  ``int`` local (any of ``< <= > >=``, a constant step, a bound the loop
  never stores, and an exit value provably in ``int``) becomes ``for v in
  range(a, b, s)``, and ``v`` gets its C exit value afterwards when it is
  read outside the loop or the loop starts from its current value;
* **constant folding** — global scalars that no code stores are literals;
* **interval facts** — every ``int`` value carries an interval (literals
  and folded scalars are exact, a ``range`` variable spans its start through
  its exit value, an ``int`` local is the hull of 0 and everything stored to
  it, widened to ``int`` when it depends on itself; parameters, array
  elements and call results are unbounded, since out-of-range literals pass
  through them unwrapped).  The 32-bit wrap is applied only where a value's
  interval is not inside ``int``; wrapping commutes with ``+ - * << & | ^
  ~``, so only the observed value's interval matters;
* **temp fusion** — a temp consumed exactly once is inlined into its
  consumer, with flush-on-conflict around stores, calls and communications
  so observable ordering is preserved;
* **hoisting** — every global array a function touches is loaded into a
  local at function entry;
* **delay accumulation** — at transaction granularity block delays add to
  a local ``_d`` that is applied at calls, communications and returns
  (where the sum first becomes observable), straight-line delays are summed
  at generation time, and a counted loop whose body is one path with no
  call and no ``comm`` charges ``header·(trips+1) + (body+step)·trips``
  once.  Block and quantum granularity keep one ``ctx.wait`` per executed
  block with a nonzero delay, in execution order.  The counting emission
  sums block multisets the same way, at every granularity.

A function whose structured form would nest more loops or indentation
levels than CPython compiles falls back to the *linear* form: a ``while``
loop over a block index with one ``if``/``elif`` arm and one statement per
IR op.  :func:`generate_linear_source` emits a whole program that way; it
is the equivalence oracle of the tests.

Processes run as generator processes of the simulation kernel, so every
function that can suspend (reaches a ``comm``, or carries delays under
per-block/quantum sync) is emitted as a generator function, chained with
``yield from``; everything else stays a plain call.  A comm-free program
at transaction granularity therefore has no generator function at all and
can be called directly, without a kernel.
"""

from __future__ import annotations

import math

from ..cdfg.cnum import INT_MAX, INT_MIN, c_div, c_rem
from ..cdfg.ir import global_storage
from ..cfrontend.ctypes_ import FLOAT, INT, is_array

#: The ``timed`` argument that selects the counting emission.
COUNT = "count"

_WRAP = "(((%s) + 2147483648) & 4294967295) - 2147483648"

_INT_WRAPPING_OPS = {"+", "-", "*"}

_CMP_OPS = {"==", "!=", "<", ">", "<=", ">="}

#: Comparisons a counted loop's header may use, and the step sign each
#: needs to terminate.
_COUNTED_CMPS = {"<": 1, "<=": 1, ">": -1, ">=": -1}

#: The value range of CMini's ``int`` (a signed 32-bit integer).
_INT32 = (INT_MIN, INT_MAX)

#: CPython's static limits: it refuses more than 20 nested loop blocks
#: ("too many statically nested blocks") and 100 indentation levels.
_MAX_LOOP_NESTING = 20
_MAX_INDENT = 99

#: Conservative alias bucket: any array element (arrays may alias through
#: parameter passing, so array reads conflict with every array write).
_ARRAYS = "[]"


class CodegenError(Exception):
    """Raised when the IR cannot be emitted (should not happen for IR built
    by :mod:`repro.cdfg.builder`)."""


class _Unstructured(Exception):
    """The structured emitter cannot express a function; emit it linearly."""


class GeneratedProgram:
    """A compiled generated module plus its metadata."""

    def __init__(self, source, namespace, ir_program, timed,
                 granularity="transaction", suspending=frozenset()):
        self.source = source
        self.namespace = namespace
        self.ir_program = ir_program
        self.timed = timed
        self.granularity = granularity
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

    def block_counts(self, counts):
        """``{function: {label: executions}}`` of a run of the counting
        emission whose context ended with ``counts`` (``{site: n}``);
        blocks that never ran are left out, as the reference interpreter
        leaves them out."""
        sites = self.namespace["_SITES"]  # (function, ((label, n), ...))
        per_func = {}
        for site, n in counts.items():
            if n:
                func, blocks = sites[site]
                per_block = per_func.setdefault(func, {})
                for label, k in blocks:
                    per_block[label] = per_block.get(label, 0) + k * n
        return per_func


def generate_source(ir_program, timed=True, granularity="transaction"):
    """Emit Python source for every function of ``ir_program``.

    ``timed`` picks the emission: ``False`` (functional), ``True`` (timed)
    or :data:`COUNT` (counting; see the module docstring).  When timed,
    every basic block must carry an annotated delay (run the annotator
    first); blocks with delay 0 charge nothing.  ``granularity`` only
    affects how timed code emits waits (``"block"`` and ``"quantum"`` sync
    inside the process, so suspension is emitted at each wait site); the
    cycle accounting is identical for every setting.
    """
    return _program_source(ir_program, timed, granularity, structured=True)


def generate_linear_source(ir_program, timed=True, granularity="transaction"):
    """:func:`generate_source` with every function in the linear form —
    the reference emission the structured form is tested against."""
    return _program_source(ir_program, timed, granularity, structured=False)


def _program_source(ir_program, timed, granularity, structured):
    cfg = _EmitConfig(ir_program, timed, granularity)
    writer = _Writer()
    writer.line("# Generated by repro.codegen.pygen — do not edit.")
    # ``inf`` and ``nan`` are how ``repr`` writes non-finite float literals.
    writer.line("from repro.codegen.runtime import c_div, c_rem, c_f2i, "
                "inf, nan")
    writer.line("")
    for name in ir_program.functions:
        func = ir_program.function(name)
        params = ", ".join("a_" + name for name, _ in func.params)
        writer.line("def f_%s(ctx, glob%s):" % (
            func.name, (", " + params) if params else ""
        ))
        writer.push()
        fe = _FuncEmit(func, cfg)
        body = fe.structured(writer.indent) if structured else None
        if body is None:
            fe.emit_linear(writer)
        else:
            writer.splice(body)
        writer.pop()
        writer.line("")
    if cfg.mode == COUNT:
        writer.line("_SITES = (")
        for func_name, blocks in cfg.sites:
            writer.line("    (%r, %r)," % (func_name, blocks))
        writer.line(")")
    return writer.text()


def generate_program(ir_program, timed=True, module_name="<generated-tlm>",
                     granularity="transaction"):
    """Generate and compile the program; returns a :class:`GeneratedProgram`."""
    source = generate_source(ir_program, timed, granularity=granularity)
    return program_from_source(
        source, ir_program, timed=timed, module_name=module_name,
        granularity=granularity,
    )


def program_from_source(source, ir_program, timed=True,
                        module_name="<generated-tlm>",
                        granularity="transaction", suspending=None,
                        code=None):
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
        source, namespace, ir_program, timed, granularity=granularity,
        suspending=frozenset(suspending),
    )


class _Writer:
    """Indented source lines; a :meth:`sub` writer collects a nested body."""

    __slots__ = ("lines", "indent")

    def __init__(self, indent=0):
        self.lines = []
        self.indent = indent

    def line(self, text=""):
        self.lines.append("    " * self.indent + text if text else "")

    def push(self):
        self.indent += 1

    def pop(self):
        self.indent -= 1

    def sub(self):
        return _Writer(self.indent + 1)

    def splice(self, lines, dedent=False):
        """Append lines rendered at this indent (one level deeper when
        ``dedent``)."""
        if dedent:
            self.lines.extend(line[4:] for line in lines)
        else:
            self.lines.extend(lines)

    def text(self):
        return "\n".join(self.lines) + "\n"


def suspending_functions(ir_program, timed=False, granularity="transaction"):
    """Functions that can reach a kernel suspension point.

    A function suspends directly when it contains a ``comm`` op, or — timed
    under per-block/quantum sync — when any of its blocks carries a nonzero
    delay.  Suspension propagates to callers through the call graph.  With
    the defaults this is the set of functions that can reach a ``comm`` op.
    """
    per_block_sync = _per_block_sync(_emission(timed), granularity)
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


def _emission(timed):
    """The emission a ``timed`` argument names: ``"functional"``,
    ``"timed"`` or :data:`COUNT`."""
    if timed == COUNT:
        return COUNT
    return "timed" if timed else "functional"


def _per_block_sync(mode, granularity):
    return mode == "timed" and granularity in ("block", "quantum")


class _Blocks(dict):
    """A block multiset ``{label: n}``: the counting emission's delay,
    added and scaled as the timed emission adds and scales cycles."""

    __slots__ = ()

    def __add__(self, other):
        total = _Blocks(self)
        for label, n in other.items():
            total[label] = total.get(label, 0) + n
        return total

    def __mul__(self, n):
        return _Blocks({label: k * n for label, k in self.items()} if n
                       else ())


class _EmitConfig:
    """Program-wide emission settings shared by every function."""

    def __init__(self, ir_program, timed, granularity):
        #: ``"functional"``, ``"timed"`` or :data:`COUNT`
        self.mode = _emission(timed)
        self.granularity = granularity
        self.per_block_sync = _per_block_sync(self.mode, granularity)
        self.suspending = suspending_functions(ir_program, timed, granularity)
        #: counting sites, ``(function, block multiset) -> index``, in
        #: emission order
        self.sites = {}
        stored = set()
        for name in ir_program.functions:
            for block in ir_program.function(name).blocks:
                for op in block.body:
                    if op.opcode == "st" and op.attrs["scope"] == "global":
                        stored.add(op.attrs["var"])
        self.stored_globals = stored
        #: global scalars no code stores -> their (literal) initial value;
        #: only generated code writes ``glob``, so these never change
        self.folded = {}
        for name, (ctype, value) in ir_program.globals.items():
            if (name not in stored and not is_array(ctype)
                    and (_is_int(value) or (isinstance(value, float)
                                            and math.isfinite(value)))):
                self.folded[name] = value

    def site(self, func_name, blocks):
        """Index of the counting site that adds the multiset ``blocks``."""
        key = (func_name, tuple(sorted(blocks.items())))
        return self.sites.setdefault(key, len(self.sites))


# -- interval facts -----------------------------------------------------------
#
# An interval is ``(lo, hi)`` bounding the exact Python value an emitted
# ``int`` expression evaluates to, or ``None`` when unbounded (and for
# floats).  The analysis pass tracks ``(interval, wraps)`` per temp, where
# ``wraps`` says whether the emitter applies the 32-bit wrap when the value
# is observed: ``True`` (always, unless the interval is inside ``int``),
# ``False`` (never) or ``None`` (it depends on fusion).


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _in_int32(iv):
    return iv is not None and INT_MIN <= iv[0] and iv[1] <= INT_MAX


def _hull(a, b):
    if a is None or b is None:
        return None
    return (min(a[0], b[0]), max(a[1], b[1]))


def _corners(fn, a, b):
    values = (fn(a[0], b[0]), fn(a[0], b[1]), fn(a[1], b[0]), fn(a[1], b[1]))
    return (min(values), max(values))


def _shift_amount(b):
    """Interval of ``b & 31``."""
    if b is not None and 0 <= b[0] and b[1] <= 31:
        return b
    return (0, 31)


def _bin_interval(kind, a, b):
    """Interval of the emitted value of ``a kind b`` (``int`` operands)."""
    if kind in _CMP_OPS:
        return (0, 1)
    if kind == "/":  # c_div wraps its result
        if a is None or b is None:
            return _INT32
        if a[0] == a[1] and b[0] == b[1] and b[0]:
            q = c_div(a[0], b[0])
            return (q, q)
        m = max(abs(a[0]), abs(a[1]))
        return (max(-m, INT_MIN), min(m, INT_MAX))
    if kind == "%":  # c_rem: |r| < |b|, sign of a; wrapped
        if a is None or b is None:
            return _INT32
        if a[0] == a[1] and b[0] == b[1] and b[0]:
            r = c_rem(a[0], b[0])
            return (r, r)
        m = max(abs(b[0]), abs(b[1])) - 1
        lo = 0 if a[0] >= 0 else max(a[0], -m)
        hi = 0 if a[1] <= 0 else min(a[1], m)
        return (max(lo, INT_MIN), min(hi, INT_MAX))
    if kind == "&":
        if a is not None and a[0] >= 0:
            if b is not None and b[0] >= 0:
                return (0, min(a[1], b[1]))
            return (0, a[1])
        if b is not None and b[0] >= 0:
            return (0, b[1])
        return _INT32 if _in_int32(a) and _in_int32(b) else None
    if a is None or b is None:
        return None
    if kind in ("|", "^"):
        if a[0] >= 0 and b[0] >= 0:
            return (0, (1 << max(a[1], b[1]).bit_length()) - 1)
        return _INT32 if _in_int32(a) and _in_int32(b) else None
    if kind == "+":
        return (a[0] + b[0], a[1] + b[1])
    if kind == "-":
        return (a[0] - b[1], a[1] - b[0])
    if kind == "*":
        return _corners(lambda x, y: x * y, a, b)
    if kind == "<<":
        return _corners(lambda x, s: x << s, a, _shift_amount(b))
    if kind == ">>":
        return _corners(lambda x, s: x >> s, a, _shift_amount(b))
    raise CodegenError("cannot emit binary op %r" % kind)


def _un_interval(kind, a):
    if kind == "!":
        return (0, 1)
    if a is None:
        return None
    if kind == "-":
        return (-a[1], -a[0])
    return (-a[1] - 1, -a[0] - 1)  # "~"


def _observed(value):
    """Interval of an analysed value once observed (wrapped if needed)."""
    iv, wraps = value
    if wraps is False or _in_int32(iv):
        return iv
    return _INT32 if wraps else _hull(iv, _INT32)


def _ring(value):
    """Interval of an analysed value fed to a wrap-compatible operator:
    the exact value when fused, the observed one when materialised."""
    iv, wraps = value
    if wraps is False or _in_int32(iv):
        return iv
    return _hull(iv, _INT32)


def _may_bin(op, a, b):
    kind = op.attrs["op"]
    if kind in _CMP_OPS:
        return ((0, 1), False)
    if op.attrs["ctype"] == FLOAT:
        return (None, False)
    if kind in _INT_WRAPPING_OPS or kind == "<<":
        return (_bin_interval(kind, _ring(a), _ring(b)), True)
    if kind in ("&", "|", "^"):
        maybe = a[1] is not False or b[1] is not False
        return (_bin_interval(kind, _ring(a), _ring(b)),
                None if maybe else False)
    if kind == ">>":
        return (_bin_interval(kind, _observed(a), _ring(b)), False)
    return (_bin_interval(kind, _observed(a), _observed(b)), False)


def _may_un(op, a):
    kind = op.attrs["op"]
    if kind == "!":
        return ((0, 1), False)
    if op.attrs["ctype"] == FLOAT:
        return (None, False)
    if kind == "-":
        return (_un_interval(kind, _ring(a)), True)
    return (_un_interval(kind, _ring(a)), None if a[1] is not False else False)


class _Loop:
    """A natural loop and, when it qualifies, its counted form."""

    __slots__ = (
        "header", "body", "exit", "owns_exit", "latch", "entry",
        "var", "cmp", "bound", "bound_var", "step", "start",
        "need_exit", "has_break", "closed", "cost", "total",
    )

    def __init__(self, header, body):
        self.header = header
        self.body = body
        self.exit = None
        self.owns_exit = False
        #: the step block of a counted loop (``None``: emitted as ``while``)
        self.latch = None
        self.closed = False
        self.total = None


class _Pending:
    """A fused (not yet materialised) temp value."""

    __slots__ = ("expr", "bool_expr", "reads", "unwrapped")

    def __init__(self, expr, reads, unwrapped, bool_expr=None):
        self.expr = expr
        self.bool_expr = bool_expr
        self.reads = reads
        self.unwrapped = unwrapped


class _FuncEmit:
    """Per-function analysis and emission state."""

    def __init__(self, func, cfg):
        self.func = func
        self.cfg = cfg
        self.blocks = {b.label: b for b in func.blocks}
        self.counting = cfg.mode == COUNT
        self.use_acc = self.counting or (
            cfg.mode == "timed" and not cfg.per_block_sync
            and any(b.delay for b in func.blocks)
        )
        self.temp_uses = {}
        for block in func.blocks:
            for op in block.ops:
                for t in op.args:
                    self.temp_uses[t] = self.temp_uses.get(t, 0) + 1
        self.pending = {}
        self.const_val = {}
        self.acc = _Blocks() if self.counting else 0
        self.quiet = False

    def _cost(self, block):
        """What one execution of ``block`` charges: its delay, the block
        itself when counting, nothing in functional code."""
        if self.counting:
            return _Blocks({block.label: 1})
        return block.delay if self.cfg.mode == "timed" else 0

    # -- analysis -------------------------------------------------------------

    def _analyse(self):
        """CFG shape, loops, interval facts and counted-loop forms."""
        blocks = self.blocks
        succs = {}
        for label, block in blocks.items():
            term = block.terminator
            if term is None:
                raise CodegenError(
                    "block %s of %s lacks a terminator"
                    % (label, self.func.name)
                )
            if term.opcode == "jmp":
                succs[label] = (term.attrs["label"],)
            elif term.opcode == "br":
                succs[label] = (term.attrs["true_label"],
                                term.attrs["false_label"])
            else:
                succs[label] = ()
        # Reverse postorder of the blocks reachable from the entry.
        entry = self.func.blocks[0].label
        post, seen, stack = [], {entry}, [(entry, iter(succs[entry]))]
        while stack:
            label, it = stack[-1]
            for nxt in it:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, iter(succs[nxt])))
                    break
            else:
                stack.pop()
                post.append(label)
        order = post[::-1]
        if self.cfg.mode == "timed":
            for label in order:
                if blocks[label].delay is None:
                    raise CodegenError(
                        "block %s of %s has no annotated delay (timed "
                        "codegen needs the annotator to run first)"
                        % (label, self.func.name)
                    )
        rpo = {label: i for i, label in enumerate(order)}
        preds = {label: [] for label in order}
        for label in order:
            for nxt in succs[label]:
                preds[nxt].append(label)
        # Immediate dominators (Cooper, Harvey and Kennedy).
        idom = {entry: entry}
        changed = True
        while changed:
            changed = False
            for label in order[1:]:
                new = None
                for p in preds[label]:
                    if p not in idom:
                        continue
                    if new is None:
                        new = p
                        continue
                    a, b = p, new
                    while a != b:
                        while rpo[a] > rpo[b]:
                            a = idom[a]
                        while rpo[b] > rpo[a]:
                            b = idom[b]
                    new = a
                if idom.get(label) != new:
                    idom[label] = new
                    changed = True
        children = {label: [] for label in order}
        for label in order[1:]:
            children[idom[label]].append(label)
        # Dominator-tree intervals: a dominates b iff pre/post nest.
        pre, last, count = {}, {}, 0
        stack = [(entry, False)]
        while stack:
            label, done = stack.pop()
            if done:
                last[label] = count
                continue
            pre[label] = count
            count += 1
            stack.append((label, True))
            stack.extend((c, False) for c in reversed(children[label]))
        self.dominates = lambda a, b: pre[a] <= pre[b] and last[b] <= last[a]
        dominates = self.dominates
        # Natural loops; a retreating edge that is no back edge means an
        # irreducible CFG, which structured emission cannot express.
        back = {}
        for label in order:
            for nxt in succs[label]:
                if rpo[nxt] <= rpo[label]:
                    if not dominates(nxt, label):
                        raise _Unstructured()
                    back.setdefault(nxt, []).append(label)
        loops = {}
        for header, sources in back.items():
            body = {header}
            work = [s for s in sources if s != header]
            while work:
                label = work.pop()
                if label not in body:
                    body.add(label)
                    work.extend(preds[label])
            loops[header] = _Loop(header, body)
        fwd_in = dict.fromkeys(order, 0)
        for label in order:
            for nxt in succs[label]:
                if not (nxt in back and label in back[nxt]):
                    fwd_in[nxt] += 1
        self.order, self.rpo, self.succs, self.preds = order, rpo, succs, preds
        self.loops, self.back, self.fwd_in = loops, back, fwd_in
        for loop in loops.values():
            self._find_exit(loop)
        # loop_of[b]: the innermost loop whose emitted body holds b — the
        # header's dominator subtree less its exit's (a header belongs to
        # the loop around it).
        self.loop_of = {}
        for loop in sorted(loops.values(), key=lambda l: -len(l.body)):
            stop = loop.exit if loop.owns_exit else None
            work = list(children[loop.header])
            while work:
                label = work.pop()
                if label != stop:
                    self.loop_of[label] = loop.header
                    work.extend(children[label])
        self._plan_loops()
        excluded = set()
        for loop in loops.values():
            if loop.owns_exit:
                excluded.add(loop.exit)
            if loop.latch is not None:
                excluded.add(loop.latch)
        self.merges = {
            label: [c for c in sorted(kids, key=rpo.__getitem__)
                    if fwd_in[c] >= 2 and c not in excluded]
            for label, kids in children.items()
        }

    def _find_exit(self, loop):
        """The block a loop's ``break`` reaches: the exit edge of its test
        (a ``do`` loop tests in its latch, ``while``/``for`` in the
        header), else the first branch out of the body that does not
        return, else the block most exit edges reach.  A bare ``break``
        block stands for the block it jumps to."""
        body = loop.body
        blocks = self.blocks

        def landing(t):
            block = blocks[t]
            if len(block.ops) == 1 and block.ops[0].opcode == "jmp":
                return block.ops[0].attrs["label"]
            return t

        tests = sorted(self.back[loop.header]) + [loop.header]
        inner = sorted(body.difference(tests), key=self.rpo.__getitem__)
        for label in tests + inner:
            out = [t for t in self.succs[label] if t not in body]
            if len(out) == 1 and len(self.succs[label]) == 2 and (
                    label in tests
                    or blocks[out[0]].terminator.opcode != "ret"):
                loop.exit = out[0] if label in tests else landing(out[0])
                break
        else:
            edges = {}
            for label in body:
                for t in self.succs[label]:
                    if t not in body:
                        t = landing(t)
                        edges[t] = edges.get(t, 0) + 1
            if edges:
                loop.exit = min(edges, key=lambda t: (-edges[t], self.rpo[t]))
        if loop.exit is not None:
            loop.owns_exit = self.dominates(loop.header, loop.exit)

    def _plan_loops(self):
        """Counted-loop forms, local intervals and closed-form delays."""
        candidates = [l for l in self.loops.values() if self._match_counted(l)]
        while True:
            self.env = self._local_intervals(candidates)
            bad = [l for l in candidates if not _in_int32(self.env[l.var])]
            if not bad:
                break
            for loop in bad:
                loop.latch = None
                candidates.remove(loop)
        for loop in candidates:
            self._plan_counted(loop)
        if self.use_acc:
            for loop in sorted(candidates, key=lambda l: len(l.body)):
                self._plan_closed(loop)

    def _match_counted(self, loop):
        """Recognise ``for (…; v CMP bound; v ±= const)``; sets the loop's
        counted fields (``latch`` marks it counted)."""
        header = self.blocks[loop.header]
        sources = self.back[loop.header]
        term = header.terminator
        if (len(sources) != 1 or term.opcode != "br"
                or term.attrs["false_label"] != loop.exit
                or term.attrs["true_label"] not in loop.body):
            return False
        locals_ = self.func.locals
        ops = header.body
        if len(ops) != 3:
            return False
        ld, bnd, cmp = ops
        # A parameter has no interval (its argument may be any value), so
        # it cannot be an induction variable.
        if (ld.opcode != "ld" or ld.attrs["scope"] != "local"
                or locals_.get(ld.attrs["var"]) != INT
                or ld.attrs["var"] in dict(self.func.params)
                or cmp.opcode != "bin" or cmp.attrs["ctype"] != INT
                or cmp.attrs["op"] not in _COUNTED_CMPS
                or cmp.args != (ld.dst, bnd.dst) or term.args != (cmp.dst,)):
            return False
        var = ld.attrs["var"]
        bound = bound_var = None
        if bnd.opcode == "const" and _is_int(bnd.attrs["value"]):
            bound = bnd.attrs["value"]
        elif bnd.opcode == "ld" and bnd.attrs["scope"] == "global":
            bound = self.cfg.folded.get(bnd.attrs["var"])
            if not _is_int(bound):
                return False
        elif (bnd.opcode == "ld" and locals_.get(bnd.attrs["var"]) == INT
              and bnd.attrs["var"] != var):
            bound_var = bnd.attrs["var"]
        else:
            return False
        latch = self.blocks[sources[0]]
        if len(latch.ops) != 5:
            return False
        s_ld, s_c, s_bin, s_st, s_jmp = latch.ops
        if (s_ld.opcode != "ld" or s_ld.attrs["scope"] != "local"
                or s_ld.attrs["var"] != var
                or s_c.opcode != "const" or not _is_int(s_c.attrs["value"])
                or s_bin.opcode != "bin" or s_bin.attrs["op"] not in ("+", "-")
                or s_bin.attrs["ctype"] != INT
                or s_bin.args != (s_ld.dst, s_c.dst)
                or s_st.opcode != "st" or s_st.attrs["scope"] != "local"
                or s_st.attrs["var"] != var or s_st.args != (s_bin.dst,)
                or s_jmp.opcode != "jmp"):
            return False
        step = s_c.attrs["value"]
        if s_bin.attrs["op"] == "-":
            step = -step
        if step == 0 or (step > 0) != (_COUNTED_CMPS[cmp.attrs["op"]] > 0):
            return False
        for label in loop.body:
            for op in self.blocks[label].body:
                if (op.opcode == "st" and op.attrs["scope"] == "local"
                        and op.attrs["var"] in (var, bound_var)
                        and op is not s_st):
                    return False
        loop.latch = latch.label
        loop.entry = term.attrs["true_label"]
        loop.var, loop.cmp, loop.step = var, cmp.attrs["op"], step
        loop.bound, loop.bound_var = bound, bound_var
        return True

    def _exit_interval(self, loop, env):
        """Interval of a counted loop's exit value after at least one trip."""
        b = (loop.bound, loop.bound) if loop.bound_var is None else (
            env.get(loop.bound_var))
        if b is None:
            return None
        s = loop.step
        return {
            "<": (b[0], b[1] + s - 1),
            "<=": (b[0] + 1, b[1] + s),
            ">": (b[0] + s + 1, b[1]),
            ">=": (b[0] + s, b[1] - 1),
        }[loop.cmp]

    def _eval_block(self, block, env, upto=None):
        """``(interval, wraps)`` of ``block``'s temps under the local
        intervals ``env`` (ops before index ``upto`` only)."""
        vals = {}
        folded = self.cfg.folded
        for op in block.body[:upto]:
            code = op.opcode
            if op.dst is None:
                continue
            if code == "const":
                v = op.attrs["value"]
                vals[op.dst] = ((v, v) if _is_int(v) else None, False)
            elif code == "ld":
                var = op.attrs["var"]
                if op.attrs["scope"] == "local":
                    vals[op.dst] = (env.get(var), False)
                else:
                    v = folded.get(var)
                    vals[op.dst] = ((v, v) if _is_int(v) else None, False)
            elif code == "bin":
                vals[op.dst] = _may_bin(op, vals[op.args[0]], vals[op.args[1]])
            elif code == "un":
                vals[op.dst] = _may_un(op, vals[op.args[0]])
            elif code == "cast" and op.attrs["to_type"] == INT:
                vals[op.dst] = (_INT32, False)
            else:
                vals[op.dst] = (None, False)
        return vals

    def _local_intervals(self, counted):
        """Interval of every ``int`` local (parameters are unbounded)."""
        func = self.func
        params = {name for name, _ in func.params}
        names = [n for n, c in func.locals.items()
                 if c == INT and n not in params]
        absorbed = {loop.latch for loop in counted}
        stores = {n: [] for n in names}
        deps = {n: set() for n in names}
        self.readers = {}
        for label in self.order:
            block = self.blocks[label]
            reads = {}
            for i, op in enumerate(block.body):
                code = op.opcode
                if code == "ld" and op.attrs["scope"] == "local":
                    var = op.attrs["var"]
                    self.readers.setdefault(var, set()).add(label)
                    if label not in absorbed:
                        reads[op.dst] = {var}
                elif code in ("bin", "un"):
                    reads[op.dst] = set().union(
                        *(reads.get(a, ()) for a in op.args))
                elif (code == "st" and op.attrs["scope"] == "local"
                      and op.attrs["var"] in stores and label not in absorbed):
                    stores[op.attrs["var"]].append((block, i))
                    deps[op.attrs["var"]] |= reads.get(op.args[0], set())
        exits = {n: [] for n in names}
        for loop in counted:
            exits[loop.var].append(loop)
            if loop.bound_var is not None:
                deps[loop.var].add(loop.bound_var)
        reach = {}
        for name in names:
            seen, work = set(), list(deps[name])
            while work:
                d = work.pop()
                if d not in seen and d in deps:
                    seen.add(d)
                    work.extend(deps[d])
            reach[name] = seen

        def value_of(name, env):
            iv = (0, 0)
            for block, i in stores[name]:
                value = self._eval_block(block, env, i)[block.body[i].args[0]]
                iv = _hull(iv, _observed(value))
            for loop in exits[name]:
                iv = _hull(iv, self._exit_interval(loop, env))
            return iv

        env = {}

        def solve(name):
            if name in env:
                return
            group = [n for n in names if n in reach[name]
                     and name in reach[n]] or [name]
            for n in group:
                for dep in deps[n]:
                    if dep in deps and dep not in group:
                        solve(dep)
            if name in reach[name]:
                # A self-dependent group: int is an invariant when every
                # store keeps it there, given the group inside int.
                trial = dict(env)
                trial.update(dict.fromkeys(group, _INT32))
                ok = all(_in_int32(value_of(n, trial)) for n in group)
                for n in group:
                    env[n] = _INT32 if ok else None
            else:
                env[name] = value_of(name, env)

        for name in names:
            solve(name)
        return env

    def _plan_counted(self, loop):
        """Start value, exit use and ``break`` facts of a counted loop."""
        header = loop.header
        entries = [p for p in self.preds[header] if p not in loop.body]
        loop.start = None
        if len(entries) == 1:
            block = self.blocks[entries[0]]
            for i in range(len(block.body) - 1, -1, -1):
                op = block.body[i]
                if (op.opcode == "st" and op.attrs["scope"] == "local"
                        and op.attrs["var"] == loop.var):
                    vals = self._eval_block(block, self.env, i)
                    iv = _observed(vals[op.args[0]])
                    if iv is not None and iv[0] == iv[1]:
                        loop.start = iv[0]
                    break
        if loop.bound_var is not None:
            b = self.env.get(loop.bound_var)
            if b is not None and b[0] == b[1]:
                loop.bound, loop.bound_var = b[0], None
        # ``v`` must hold its C exit value wherever it is read after the
        # loop — and in the loop's own ``range`` when the loop is entered
        # again without a store of ``v`` (no known start).
        loop.need_exit = loop.start is None or any(
            label not in loop.body for label in self.readers[loop.var])
        loop.has_break = any(
            p != header for p in self.preds.get(loop.exit, ())
        )

    def _range_args(self, loop):
        """``(start, stop, step)`` of a counted loop's ``range``, as Python
        values or expressions."""
        start = loop.start if loop.start is not None else "v_" + loop.var
        adjust = {"<": 0, "<=": 1, ">": 0, ">=": -1}[loop.cmp]
        if loop.bound_var is None:
            stop = loop.bound + adjust
        elif adjust:
            stop = "v_%s %+d" % (loop.bound_var, adjust)
        else:
            stop = "v_" + loop.bound_var
        return start, stop, loop.step

    def _trips(self, loop):
        start, stop, step = self._range_args(loop)
        if isinstance(start, int) and isinstance(stop, int):
            return len(range(start, stop, step))
        return None

    def _plan_closed(self, loop):
        """Closed-form delay of a counted loop whose body is one path with
        no call and no ``comm`` (nested closed-form loops included)."""
        blocks = self.blocks
        cost = self._cost(blocks[loop.header]) + self._cost(blocks[loop.latch])
        label = loop.entry
        while label != loop.latch:
            if label not in loop.body:
                return
            inner = self.loops.get(label)
            if inner is not None:
                if not inner.closed:
                    return
                if inner.total:  # else it charges itself
                    cost += inner.total
                label = inner.exit
                continue
            block = blocks[label]
            if block.terminator.opcode != "jmp" or any(
                    op.opcode in ("call", "comm") for op in block.body):
                return
            cost += self._cost(block)
            label = block.terminator.attrs["label"]
        loop.closed = True
        loop.cost = cost
        trips = self._trips(loop)
        if trips is not None:
            loop.total = self._cost(blocks[loop.header]) + cost * trips

    # -- structured emission ----------------------------------------------------

    def structured(self, indent):
        """The function body in structured form, as lines at ``indent``, or
        ``None`` when it cannot be expressed (or compiled) that way."""
        try:
            self._analyse()
            self.dups = 0
            self.loop_depth = self.max_loop_depth = 0
            w = _Writer(indent)
            self.emit_prologue(w, structured=True)
            self.finish(w, (self.order[0], None), None)
        except _Unstructured:
            return None
        if self.max_loop_depth > _MAX_LOOP_NESTING or max(
                (len(line) - len(line.lstrip(" ")) for line in w.lines),
                default=0) > 4 * _MAX_INDENT:
            return None
        return w.lines

    def finish(self, w, step, loop):
        """Run ``step`` — whether code falls off its end into its
        ``follow``, or the ``(label, follow)`` to emit next — to the end;
        returns whether it falls off.  Successive blocks and loops are
        emitted by this loop, not by recursion, so recursion depth grows
        with statement nesting only."""
        while step is not True and step is not False:
            label, follow = step
            if self.loop_of.get(label) != (loop.header if loop else None):
                raise _Unstructured()
            inner = self.loops.get(label)
            if inner is not None:
                step = self.emit_loop(w, inner, follow, loop)
            else:
                step = self.node(w, label, follow, loop)
        return step

    def node(self, w, label, follow, loop):
        """Emit ``label``, then the merge points it dominates.  ``follow``
        is the block that runs when this code falls off its end; returns a
        :meth:`finish` step."""
        block = self.blocks[label]
        merges = self.merges[label]
        chain = merges + [follow]
        self.emit_block_ops(w, block)
        term = block.terminator
        if term.opcode == "ret":
            self.emit_ret(w, term)
            return False
        if term.opcode == "jmp":
            step = self.branch(w, label, term.attrs["label"], chain[0], loop)
        else:
            step = self.emit_if(w, label, term, chain[0], loop)
        for i, merge in enumerate(merges):
            if not self.finish(w, step, loop):
                return False  # merges only reached through re-emitted copies
            step = (merge, chain[i + 1])
        return step

    def emit_if(self, w, label, term, follow, loop):
        cond = self.consume_bool(term.args[0])
        self.settle(w)
        then_w, else_w = w.sub(), w.sub()
        then_falls = self.finish(then_w, self.branch(
            then_w, label, term.attrs["true_label"], follow, loop), loop)
        self.settle(then_w)
        else_falls = self.finish(else_w, self.branch(
            else_w, label, term.attrs["false_label"], follow, loop), loop)
        self.settle(else_w)
        then_lines, else_lines = then_w.lines, else_w.lines
        if not then_falls or not else_lines:
            if then_lines or not else_lines:
                w.line("if %s:" % cond)
                w.splice(then_lines or [then_w.indent * "    " + "pass"])
            w.splice(else_lines, dedent=True)
        elif not else_falls or not then_lines:
            w.line("if not (%s):" % cond)
            w.splice(else_lines)
            w.splice(then_lines, dedent=True)
        else:
            w.line("if %s:" % cond)
            w.splice(then_lines)
            w.line("else:")
            w.splice(else_lines)
        return then_falls or else_falls

    def branch(self, w, src, target, follow, loop):
        """Transfer control from ``src`` to ``target``; returns a
        :meth:`finish` step."""
        if target == follow:
            return True
        if loop is not None:
            if target == loop.header:
                self.settle(w)
                w.line("continue")
                return False
            if target == loop.exit:
                self.settle(w)
                w.line("break")
                return False
            if target == loop.latch:
                self.charge(w, self.blocks[target])
                self.settle(w)
                w.line("continue")
                return False
        if src is not None and src in self.back.get(target, ()):
            raise _Unstructured()  # a continue of an outer loop
        if self.fwd_in[target] >= 2:
            # A merge point emitted elsewhere, reached from inside a
            # construct: re-emit it here (C's ``continue`` to a ``for``
            # step or a ``do`` condition).  It must end in a jump.
            self.dups += 1
            if loop is None or self.dups > len(self.order):
                raise _Unstructured()
            return target, None
        return target, follow

    def emit_loop(self, w, loop, follow, outer):
        """Emit ``loop``; returns the :meth:`finish` step after it."""
        self.loop_depth += 1
        self.max_loop_depth = max(self.max_loop_depth, self.loop_depth)
        if loop.latch is not None:
            self.emit_counted(w, loop)
        else:
            self.settle(w)
            w.line("while True:")
            body = w.sub()
            self.finish(body, self.node(body, loop.header, loop.header, loop),
                        loop)
            self.settle(body)
            w.splice(body.lines or [body.indent * "    " + "pass"])
        self.loop_depth -= 1
        if loop.exit is None:
            return False
        if loop.owns_exit:
            return loop.exit, follow
        return self.branch(w, None, loop.exit, follow, outer)

    def emit_counted(self, w, loop):
        """``for v in range(…)``: the header's test and the step's update
        are the ``range``; their delays stay per iteration unless the loop
        charges in closed form."""
        header = self.blocks[loop.header]
        start, stop, step = self._range_args(loop)
        args = "%s, %s" % (start, stop)
        if step != 1:
            args += ", %d" % step
        iterable = "range(%s)" % args
        trips = self._trips(loop)
        exit_value = None
        if loop.need_exit and trips is not None:
            exit_value = str(start + trips * step)
        dynamic = loop.closed and loop.total is None
        if (loop.need_exit and exit_value is None) or dynamic:
            name = "_r%d" % loop.header
            w.line("%s = %s" % (name, iterable))
            iterable = name
            exit_value = "%s.start + len(%s) * %d" % (name, name, step)
        if loop.closed:
            if dynamic and self.counting:
                self.acc += self._cost(header)
                w.line("_n[%d] += len(%s)" % (
                    self.cfg.site(self.func.name, loop.cost), iterable))
            elif dynamic:
                w.line("_d += %d + %d * len(%s)" % (
                    header.delay, loop.cost, iterable))
            elif not self.quiet:
                self.acc += loop.total
        self.settle(w)
        w.line("for v_%s in %s:" % (loop.var, iterable))
        body = w.sub()
        quiet = self.quiet
        self.quiet = quiet or loop.closed
        self.charge(body, header)
        if self.finish(body, self.branch(
                body, loop.header, loop.entry, loop.latch, loop), loop):
            self.charge(body, self.blocks[loop.latch])
            self.settle(body)
        self.quiet = quiet
        w.splice(body.lines or [body.indent * "    " + "pass"])
        tail = w.sub() if loop.has_break else w
        if not loop.closed:
            self.charge(tail, header)  # the test that ends the loop
        if loop.need_exit:
            self.settle(tail)
            tail.line("v_%s = %s" % (loop.var, exit_value))
        if loop.has_break:
            self.settle(tail)
            if tail.lines:
                w.line("else:")
                w.splice(tail.lines)

    # -- block bodies ------------------------------------------------------------

    def charge(self, w, block):
        """Charge one execution of ``block``'s delay (count it, counting)."""
        cost = self._cost(block)
        if not cost or self.quiet:
            return
        if self.use_acc:
            self.acc += cost
        else:
            w.line("if ctx.wait(%d):" % cost)
            w.line("    yield from ctx.sync_gen()")

    def settle(self, w):
        """Write the delay summed since the last control statement."""
        if not self.acc:
            return
        if self.counting:
            w.line("_n[%d] += 1" % self.cfg.site(self.func.name, self.acc))
            self.acc = _Blocks()
        else:
            w.line("_d += %d" % self.acc)
            self.acc = 0

    def emit_prologue(self, w, structured):
        func = self.func
        param_names = {name for name, _ in func.params}
        for name, ctype in func.params:
            w.line("v_%s = a_%s" % (name, name))
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
                    w.line("v_%s = %r" % (name, values))
                else:
                    zero = "0.0" if ctype.elem == FLOAT else "0"
                    w.line("v_%s = [%s] * %d" % (name, zero, ctype.size))
            else:
                w.line("v_%s = %s" % (name, "0.0" if ctype == FLOAT else "0"))
        if self.counting:
            w.line("_n = ctx.counts")
        if not structured:
            return
        arrays = set()
        for label in self.order:
            for op in self.blocks[label].body:
                if op.opcode in ("ldx", "stx", "comm"):
                    if op.attrs["scope"] == "global":
                        arrays.add(op.attrs["var"])
                elif op.opcode == "call":
                    arrays.update(spec[1] for spec in op.attrs["arg_spec"]
                                  if spec[0] != "temp" and spec[2] == "global")
        for var in sorted(arrays):
            w.line('g_%s = glob["%s"]' % (var, var))
        if self.use_acc and not self.counting:
            w.line("_d = 0")

    def emit_block_ops(self, w, block):
        # The analysis intervals bound every value the emitter can give a
        # temp, fused or materialised: they decide each wrap.
        self.vals = self._eval_block(block, self.env)
        if self.counting:
            self.charge(w, block)  # as it starts: see the module docstring
        for op in block.body:
            self.emit_op(w, op)
        if not self.counting:
            self.charge(w, block)
        term = block.terminator
        self.drain(w, set(term.args))

    def drain(self, w, keep=()):
        """Materialise leftover pending temps (in definition order)."""
        for t in [t for t in self.pending if t not in keep]:
            self._flush_one(w, t)

    def _wrapped(self, t, expr, unwrapped):
        """``expr``, wrapped unless its value is provably in ``int``."""
        if unwrapped and not _in_int32(self.vals[t][0]):
            return _WRAP % expr
        return expr

    def _flush_one(self, w, t):
        e = self.pending.pop(t)
        w.line("t%d = %s" % (t, self._wrapped(t, e.expr, e.unwrapped)))

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
            w.line("t%d = %s" % (dst, self._wrapped(dst, expr, unwrapped)))

    def consume(self, t, want):
        """Expression for temp ``t``; returns (expr, reads, unwrapped).

        ``want`` is ``"wrapped"`` (value must be the observable 32-bit
        value) or ``"ring"`` (value feeds a wrap-compatible operator, so
        the wrap may stay deferred).
        """
        e = self.pending.pop(t, None)
        if e is not None:
            if want == "ring":
                return "(%s)" % e.expr, e.reads, e.unwrapped
            return "(%s)" % self._wrapped(t, e.expr, e.unwrapped), e.reads, \
                False
        lit = self.const_val.get(t)
        if lit is not None:
            return "(%s)" % lit, frozenset(), False
        return "t%d" % t, frozenset(), False

    def consume_bool(self, t):
        """Branch-condition expression for temp ``t``."""
        e = self.pending.get(t)
        if e is not None and e.bool_expr is not None:
            del self.pending[t]
            return e.bool_expr
        return "%s != 0" % self.consume(t, "wrapped")[0]

    def var_ref(self, var, scope):
        """(expression, read-location) for a scalar variable access."""
        if scope == "global":
            return 'glob["%s"]' % var, ("g", var)
        return "v_%s" % var, ("l", var)

    def array_ref(self, var, scope):
        return ("g_" if scope == "global" else "v_") + var

    def _flush_delay(self, w):
        """Apply the accumulated delay before a timing-observable point."""
        if self.counting:
            self.settle(w)
        elif self.acc:
            w.line("ctx.wait(_d + %d); _d = 0" % self.acc)
            self.acc = 0
        elif self.use_acc:
            w.line("if _d: ctx.wait(_d); _d = 0")

    def emit_ret(self, w, term):
        if term.args:
            val = self.consume(term.args[0], "wrapped")[0]
        else:
            val = "None"
        self._flush_all(w)
        if self.counting:
            self.settle(w)
        elif self.acc:
            w.line("ctx.wait(_d + %d)" % self.acc)
            self.acc = 0
        elif self.use_acc:
            w.line("if _d: ctx.wait(_d)")
        w.line("return %s" % val)

    def emit_op(self, w, op):
        opcode = op.opcode
        attrs = op.attrs
        if opcode == "const":
            self.const_val[op.dst] = repr(attrs["value"])
            return
        if opcode == "ld":
            var, scope = attrs["var"], attrs["scope"]
            if scope == "global" and var in self.cfg.folded:
                self.const_val[op.dst] = repr(self.cfg.folded[var])
                return
            ref, loc = self.var_ref(var, scope)
            self.stage(w, op.dst, ref, frozenset((loc,)), False)
            return
        if opcode == "st":
            ref, loc = self.var_ref(attrs["var"], attrs["scope"])
            val = self.consume(op.args[0], "wrapped")[0]
            self._flush_reading(w, loc)
            w.line("%s = %s" % (ref, val))
            return
        if opcode == "ldx":
            idx, reads, _ = self.consume(op.args[0], "wrapped")
            ref = self.array_ref(attrs["var"], attrs["scope"])
            self.stage(w, op.dst, "%s[%s]" % (ref, idx),
                       frozenset(reads) | {_ARRAYS}, False)
            return
        if opcode == "stx":
            idx = self.consume(op.args[0], "wrapped")[0]
            val = self.consume(op.args[1], "wrapped")[0]
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
            fn = "c_f2i" if attrs["to_type"] == INT else "float"
            self.stage(w, op.dst, "%s(%s)" % (fn, a), reads, False)
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
        if kind in _CMP_OPS or op.attrs["ctype"] == FLOAT:
            a, ra, _ = self.consume(op.args[0], "wrapped")
            b, rb, _ = self.consume(op.args[1], "wrapped")
            expr = "%s %s %s" % (a, kind, b)
            if kind in _CMP_OPS:
                self.stage(w, op.dst, "1 if %s else 0" % expr, ra | rb,
                           False, bool_expr=expr)
            else:
                self.stage(w, op.dst, expr, ra | rb, False)
            return
        if kind in ("/", "%", ">>"):
            a, ra, _ = self.consume(op.args[0], "wrapped")
            b, rb, _ = self.consume(
                op.args[1], "ring" if kind == ">>" else "wrapped")
            if kind == ">>":
                expr = "%s >> (%s & 31)" % (a, b)
            else:
                expr = "%s(%s, %s)" % (
                    "c_div" if kind == "/" else "c_rem", a, b)
            self.stage(w, op.dst, expr, ra | rb, False)
            return
        a, ra, ua = self.consume(op.args[0], "ring")
        b, rb, ub = self.consume(op.args[1], "ring")
        if kind == "<<":
            expr = "%s << (%s & 31)" % (a, b)
        else:
            expr = "%s %s %s" % (a, kind, b)
        unwrapped = kind in _INT_WRAPPING_OPS or kind == "<<" or ua or ub
        self.stage(w, op.dst, expr, ra | rb, unwrapped)

    def _emit_un(self, w, op):
        kind = op.attrs["op"]
        if kind == "!" or op.attrs["ctype"] == FLOAT:
            a, ra, _ = self.consume(op.args[0], "wrapped")
            if kind == "!":
                self.stage(w, op.dst, "1 if %s == 0 else 0" % a, ra, False,
                           bool_expr="%s == 0" % a)
            else:
                self.stage(w, op.dst, "-%s" % a, ra, False)
            return
        if kind not in ("-", "~"):
            raise CodegenError("cannot emit unary op %r" % kind)
        a, ra, ua = self.consume(op.args[0], "ring")
        self.stage(w, op.dst, "%s%s" % (kind, a), ra, kind == "-" or ua)

    # -- linear emission -------------------------------------------------------

    def emit_linear(self, w):
        """The function in linear form: one dispatch arm per block."""
        self.emit_prologue(w, structured=False)
        blocks = self.func.blocks
        if len(blocks) == 1:
            self.emit_seed_block(w, blocks[0], dispatch=False)
            return
        w.line("bb = %d" % blocks[0].label)
        w.line("while True:")
        w.push()
        for i, block in enumerate(blocks):
            w.line("%s bb == %d:" % ("if" if i == 0 else "elif", block.label))
            w.push()
            self.emit_seed_block(w, block)
            w.pop()
        w.pop()

    def emit_seed_block(self, w, block, dispatch=True):
        """One block in linear form: a statement per op, its wait, and a
        jump through the block index."""
        if self.counting:  # as it starts: see the module docstring
            w.line("_n[%d] += 1" % self.cfg.site(
                self.func.name, self._cost(block)))
        for op in block.body:
            for line in self._seed_op_lines(op):
                w.line(line)
        if self.cfg.mode == "timed":
            if block.delay is None:
                raise CodegenError(
                    "block %s of %s has no annotated delay (timed codegen "
                    "needs the annotator to run first)"
                    % (block.label, self.func.name)
                )
            if block.delay and self.cfg.per_block_sync:
                w.line("if ctx.wait(%d):" % block.delay)
                w.line("    yield from ctx.sync_gen()")
            elif block.delay:
                w.line("ctx.wait(%d)" % block.delay)
        term = block.terminator
        if term is None:
            raise CodegenError(
                "block %s of %s lacks a terminator" % (block.label, self.func.name)
            )
        if term.opcode == "jmp":
            if dispatch:
                w.line("bb = %d" % term.attrs["label"])
                w.line("continue")
        elif term.opcode == "br":
            w.line("if t%d != 0:" % term.args[0])
            w.line("    bb = %d" % term.attrs["true_label"])
            w.line("else:")
            w.line("    bb = %d" % term.attrs["false_label"])
            w.line("continue")
        elif term.args:
            w.line("return t%d" % term.args[0])
        else:
            w.line("return None")

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


def _plain_ref(op):
    """Python lvalue/rvalue expression for the op's variable (linear form)."""
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
