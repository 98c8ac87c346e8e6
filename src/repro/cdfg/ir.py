"""Linear three-address IR and CDFG data structures.

A CMini program lowers to an :class:`IRProgram` of :class:`IRFunction` values.
Each function is a control-flow graph of :class:`BasicBlock` objects, and each
block is a straight-line list of :class:`Op` values ending in a terminator
(``br``, ``jmp`` or ``ret``).  The per-block *data*-flow graph used by the
estimation engine is derived on demand by :mod:`repro.cdfg.dfg`.

Opcodes
-------

======== ==========================================================
opcode   meaning
======== ==========================================================
const    ``dst = literal``
ld       ``dst = scalar_var``
st       ``scalar_var = a``
ldx      ``dst = array_var[a]``
stx      ``array_var[a] = b``
bin      ``dst = a <op> b``
un       ``dst = <op> a``
cast     ``dst = (to_type) a``
call     ``dst? = func(args...)`` — array args passed by name
comm     ``send/recv(chan, array_var, count)``
br       conditional branch on ``a`` (terminator)
jmp      unconditional branch (terminator)
ret      return, optionally with a value (terminator)
======== ==========================================================

Every op carries an ``opclass`` — the operation class the PUM's operation
mapping table is keyed on (``alu``, ``mul``, ``div``, ``falu``, ``fmul``,
``fdiv``, ``load``, ``store``, ``move``, ``branch``, ``call``, ``comm``).
"""

from __future__ import annotations

from ..cfrontend.ctypes_ import FLOAT, INT, is_array

TERMINATORS = frozenset(["br", "jmp", "ret"])

#: Operation classes understood by the PUM operation-mapping table.
OP_CLASSES = (
    "alu",
    "mul",
    "div",
    "falu",
    "fmul",
    "fdiv",
    "load",
    "store",
    "move",
    "branch",
    "call",
    "comm",
)

_INT_ALU_OPS = frozenset(
    ["+", "-", "&", "|", "^", "<<", ">>", "==", "!=", "<", ">", "<=", ">="]
)


class Op:
    """One IR operation.

    Attributes:
        opcode: opcode string (see module docstring).
        dst: destination temp id or ``None``.
        args: tuple of source temp ids.
        attrs: opcode-specific attributes (``value``, ``var``, ``op``,
            ``ctype``, ``func``, ``kind``, ``label``...).
        line: originating source line (for diagnostics).
    """

    __slots__ = ("opcode", "dst", "args", "attrs", "line")

    def __init__(self, opcode, dst=None, args=(), attrs=None, line=None):
        self.opcode = opcode
        self.dst = dst
        self.args = tuple(args)
        self.attrs = attrs or {}
        self.line = line

    @property
    def opclass(self):
        """The PUM operation class of this op."""
        opcode = self.opcode
        if opcode == "bin":
            op = self.attrs["op"]
            if self.attrs["ctype"] == FLOAT:
                if op == "*":
                    return "fmul"
                if op == "/":
                    return "fdiv"
                return "falu"
            if op == "*":
                return "mul"
            if op in ("/", "%"):
                return "div"
            return "alu"
        if opcode == "un":
            if self.attrs["ctype"] == FLOAT:
                return "falu"
            return "alu"
        if opcode in ("ld", "ldx"):
            return "load"
        if opcode in ("st", "stx"):
            return "store"
        if opcode in ("const", "cast"):
            return "move"
        if opcode in ("br", "jmp"):
            return "branch"
        if opcode == "ret":
            return "branch"
        if opcode == "call":
            return "call"
        if opcode == "comm":
            return "comm"
        raise ValueError("unknown opcode %r" % opcode)

    @property
    def is_terminator(self):
        return self.opcode in TERMINATORS

    @property
    def is_memory(self):
        return self.opcode in ("ld", "st", "ldx", "stx")

    @property
    def touches_var(self):
        """Variable name read or written by a memory op, else ``None``."""
        return self.attrs.get("var")

    def __repr__(self):
        parts = [self.opcode]
        if self.dst is not None:
            parts.append("t%d =" % self.dst)
        if self.args:
            parts.append(", ".join("t%d" % a for a in self.args))
        if self.attrs:
            parts.append(
                " ".join("%s=%r" % (k, v) for k, v in sorted(self.attrs.items()))
            )
        return "<%s>" % " ".join(parts)


class BasicBlock:
    """A maximal straight-line sequence of ops plus one terminator.

    ``delay`` is filled in by the estimation engine (Algorithm 2): the
    estimated number of PE cycles one execution of this block costs.
    """

    __slots__ = ("label", "ops", "delay", "preds", "succs", "func")

    def __init__(self, label, func=None):
        self.label = label
        self.ops = []
        self.delay = None
        self.preds = []
        self.succs = []
        self.func = func

    @property
    def terminator(self):
        if self.ops and self.ops[-1].is_terminator:
            return self.ops[-1]
        return None

    @property
    def body(self):
        """Ops excluding the terminator."""
        if self.terminator is not None:
            return self.ops[:-1]
        return self.ops

    def append(self, op):
        self.ops.append(op)

    @property
    def n_operands(self):
        """Number of data-memory operands (loads + stores) in the block.

        This is the "# of BB Operands" term of Algorithm 2 (d-cache accesses).
        """
        return sum(1 for op in self.ops if op.is_memory)

    @property
    def n_ops(self):
        """Number of operations — the "# of BB Ops" i-cache term of Alg. 2."""
        return len(self.ops)

    def __repr__(self):
        return "BB(%s, %d ops, delay=%s)" % (self.label, len(self.ops), self.delay)


class IRFunction:
    """A function lowered to a CFG of basic blocks."""

    def __init__(self, name, ret_type, params, program=None):
        self.name = name
        self.ret_type = ret_type
        #: list of (name, ctype) in declaration order
        self.params = list(params)
        #: name -> ctype for every local (including params)
        self.locals = {name: ctype for name, ctype in params}
        #: name -> list of folded initializer values for local arrays
        self.local_array_inits = {}
        #: name -> folded initial value for scalar locals declared with a
        #: constant initializer (non-constant initializers lower to stores)
        self.blocks = []
        self.n_temps = 0
        self.program = program

    def new_temp(self):
        temp = self.n_temps
        self.n_temps += 1
        return temp

    def new_block(self):
        block = BasicBlock(len(self.blocks), func=self)
        self.blocks.append(block)
        return block

    @property
    def entry(self):
        return self.blocks[0]

    def block(self, label):
        return self.blocks[label]

    def compute_edges(self):
        """(Re)compute predecessor/successor lists from terminators."""
        for block in self.blocks:
            block.preds = []
            block.succs = []
        for block in self.blocks:
            term = block.terminator
            if term is None:
                continue
            if term.opcode == "jmp":
                targets = [term.attrs["label"]]
            elif term.opcode == "br":
                targets = [term.attrs["true_label"], term.attrs["false_label"]]
            else:
                targets = []
            for target in targets:
                block.succs.append(target)
                self.blocks[target].preds.append(block.label)

    def remove_unreachable_blocks(self):
        """Drop blocks unreachable from the entry and relabel the CFG."""
        reachable = set()
        stack = [0]
        while stack:
            label = stack.pop()
            if label in reachable:
                continue
            reachable.add(label)
            term = self.blocks[label].terminator
            if term is None:
                continue
            if term.opcode == "jmp":
                stack.append(term.attrs["label"])
            elif term.opcode == "br":
                stack.append(term.attrs["true_label"])
                stack.append(term.attrs["false_label"])
        keep = [b for b in self.blocks if b.label in reachable]
        remap = {old.label: new for new, old in enumerate(keep)}
        for block in keep:
            block.label = remap[block.label]
            term = block.terminator
            if term is None:
                continue
            if term.opcode == "jmp":
                term.attrs["label"] = remap[term.attrs["label"]]
            elif term.opcode == "br":
                term.attrs["true_label"] = remap[term.attrs["true_label"]]
                term.attrs["false_label"] = remap[term.attrs["false_label"]]
        self.blocks = keep
        self.compute_edges()

    @property
    def n_ops(self):
        return sum(len(b.ops) for b in self.blocks)

    def __repr__(self):
        return "IRFunction(%s, %d blocks, %d ops)" % (
            self.name,
            len(self.blocks),
            self.n_ops,
        )


class IRProgram:
    """A lowered CMini translation unit."""

    def __init__(self):
        self.functions = {}
        #: name -> (ctype, initial_value) where initial_value is a scalar or
        #: a fully materialised list for arrays
        self.globals = {}

    def add_function(self, func):
        func.program = self
        self.functions[func.name] = func

    def function(self, name):
        return self.functions[name]

    @property
    def n_blocks(self):
        return sum(len(f.blocks) for f in self.functions.values())

    @property
    def n_ops(self):
        return sum(f.n_ops for f in self.functions.values())

    def __repr__(self):
        return "IRProgram(%d functions, %d blocks, %d ops)" % (
            len(self.functions),
            self.n_blocks,
            self.n_ops,
        )


def global_storage(ir_program):
    """Create fresh mutable storage for the program's globals.

    Returns a dict mapping name to scalar value or list (arrays are copied so
    repeated simulations do not share state).
    """
    storage = {}
    for name, (ctype, init) in ir_program.globals.items():
        if is_array(ctype):
            storage[name] = list(init)
        else:
            storage[name] = init
    return storage


def default_value(ctype):
    """The zero value for a scalar CMini type."""
    return 0.0 if ctype == FLOAT else 0
