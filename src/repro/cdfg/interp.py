"""Reference interpreter for the linear IR.

The interpreter defines CMini's execution semantics.  The generated timed
Python code, the R32 ISS and the cycle-accurate PCAM must all agree with it
bit-for-bit on ``int`` results (and exactly on ``float`` results, since every
backend uses double arithmetic); the integration test-suite enforces this.

Execution has one form: :meth:`Interpreter.call_gen` returns a generator
(one per IR function call) that runs the program and suspends at every
``comm`` op, yielding ``("send", chan, values)`` or ``("recv", chan,
count)``; a ``recv`` is resumed with the received words.  Whoever drives
the generator implements the channels — :meth:`Interpreter.call` with a
``comm`` object, a PCAM hardware unit with kernel channels, or the static
estimator's profiling scheduler.

It also exposes two instrumentation hooks used elsewhere in the system:

* ``on_block(func_name, label)`` — called each time a basic block starts
  executing.  The timing annotator's *estimated total* for a run is the sum
  of annotated block delays over this trace, and the PCAM's HW datapath model
  re-schedules each block dynamically from the same hook.
* ``comm`` — an object with ``send(chan, values)`` / ``recv(chan, count)``
  that :meth:`Interpreter.call` hands the communication requests to.
"""

from __future__ import annotations

from ..cfrontend.ctypes_ import FLOAT, INT, is_array
from ..errors import AbortError
from . import cnum
from .ir import default_value, global_storage


class InterpreterError(AbortError):
    """Raised for runtime errors in interpreted CMini code."""

    code = "interpreter"


class NullComm:
    """Communication endpoints that fail on use (for pure computations)."""

    def send(self, chan, values):
        raise InterpreterError("send() called but no comm handler installed")

    def recv(self, chan, count):
        raise InterpreterError("recv() called but no comm handler installed")


class QueueComm:
    """Simple in-process FIFO channels, handy for tests and examples."""

    def __init__(self):
        self.queues = {}

    def send(self, chan, values):
        self.queues.setdefault(chan, []).extend(values)

    def recv(self, chan, count):
        queue = self.queues.get(chan, [])
        if len(queue) < count:
            raise InterpreterError(
                "recv(%d) on channel %d with only %d queued"
                % (count, chan, len(queue))
            )
        taken, self.queues[chan] = queue[:count], queue[count:]
        return taken


def eval_binop(op, a, b, ctype):
    """Evaluate a binary IR operation with C semantics.

    ``ctype`` is the *operand* type; comparisons return int 0/1 regardless.
    """
    if op == "+":
        return cnum.c_add(a, b) if ctype == INT else a + b
    if op == "-":
        return cnum.c_sub(a, b) if ctype == INT else a - b
    if op == "*":
        return cnum.c_mul(a, b) if ctype == INT else a * b
    if op == "/":
        if ctype == INT:
            return cnum.c_div(a, b)
        if b == 0.0:
            raise ZeroDivisionError("float division by zero")
        return a / b
    if op == "%":
        return cnum.c_rem(a, b)
    if op == "<<":
        return cnum.c_shl(a, b)
    if op == ">>":
        return cnum.c_shr(a, b)
    if op == "&":
        return a & b
    if op == "|":
        return a | b
    if op == "^":
        return a ^ b
    if op == "==":
        return 1 if a == b else 0
    if op == "!=":
        return 1 if a != b else 0
    if op == "<":
        return 1 if a < b else 0
    if op == ">":
        return 1 if a > b else 0
    if op == "<=":
        return 1 if a <= b else 0
    if op == ">=":
        return 1 if a >= b else 0
    raise InterpreterError("unknown binary op %r" % op)


def eval_unop(op, a, ctype):
    if op == "-":
        return cnum.c_neg(a) if ctype == INT else -a
    if op == "!":
        return 0 if a else 1
    if op == "~":
        return cnum.c_not(a)
    raise InterpreterError("unknown unary op %r" % op)


def eval_cast(value, to_type):
    if to_type == INT:
        return cnum.c_float_to_int(value) if isinstance(value, float) else value
    return float(value)


class _Frame:
    __slots__ = ("func", "temps", "locals")

    def __init__(self, func):
        self.func = func
        self.temps = [None] * func.n_temps
        self.locals = {}


class Interpreter:
    """Executes IR functions with reference semantics."""

    def __init__(self, ir_program, comm=None, on_block=None, max_depth=200):
        self.program = ir_program
        self.globals = global_storage(ir_program)
        self.comm = comm if comm is not None else NullComm()
        self.on_block = on_block
        self.max_depth = max_depth
        self._depth = 0
        #: (func_name, label) -> execution count; always maintained (cheap)
        self.block_counts = {}

    def reset(self):
        """Reset global storage and counters for a fresh run."""
        self.globals = global_storage(self.program)
        self.block_counts = {}

    def call(self, func_name, *args):
        """Invoke ``func_name`` with Python values and run it to completion.

        Scalars are passed by value; arrays must be Python lists and are
        passed by reference (mutations are visible to the caller), matching C
        array-decay semantics.  Communication requests go to ``comm``.
        """
        program = self.call_gen(func_name, *args)
        comm = self.comm
        reply = None
        while True:
            try:
                kind, chan, payload = program.send(reply)
            except StopIteration as stop:
                return stop.value
            if kind == "send":
                comm.send(chan, payload)
                reply = None
            else:
                reply = comm.recv(chan, payload)

    def call_gen(self, func_name, *args):
        """The generator form of :meth:`call`.

        Runs ``func_name`` and suspends at each ``comm`` op, yielding
        ``("send", chan, values)`` (resume with ``None``) or ``("recv",
        chan, count)`` (resume with the ``count`` received words).  The
        function's return value is the generator's return value.
        """
        func = self.program.function(func_name)
        if len(args) != len(func.params):
            raise InterpreterError(
                "%s() expects %d args, got %d"
                % (func_name, len(func.params), len(args))
            )
        frame = _Frame(func)
        for (name, ctype), value in zip(func.params, args):
            if is_array(ctype):
                if not isinstance(value, list):
                    raise InterpreterError(
                        "array parameter %r needs a list" % name
                    )
                frame.locals[name] = value
            else:
                frame.locals[name] = float(value) if ctype == FLOAT else int(value)
        return self._run(frame)

    # -- execution -----------------------------------------------------------

    def _run(self, frame):
        """Generator executing one function call (see :meth:`call_gen`)."""
        self._depth += 1
        if self._depth > self.max_depth:
            self._depth -= 1
            raise InterpreterError("call depth exceeded (runaway recursion?)")
        try:
            func = frame.func
            self._init_locals(frame)
            name = func.name
            blocks = func.blocks
            temps = frame.temps
            local_vars = frame.locals
            global_vars = self.globals
            counts = self.block_counts
            on_block = self.on_block
            block = blocks[0]
            while True:
                key = (name, block.label)
                counts[key] = counts.get(key, 0) + 1
                if on_block is not None:
                    on_block(name, block.label)
                for op in block.ops:
                    opcode = op.opcode
                    if opcode == "const":
                        temps[op.dst] = op.attrs["value"]
                    elif opcode == "ld":
                        attrs = op.attrs
                        store = (global_vars if attrs["scope"] == "global"
                                 else local_vars)
                        temps[op.dst] = store[attrs["var"]]
                    elif opcode == "st":
                        attrs = op.attrs
                        store = (global_vars if attrs["scope"] == "global"
                                 else local_vars)
                        store[attrs["var"]] = temps[op.args[0]]
                    elif opcode == "ldx":
                        attrs = op.attrs
                        array = (global_vars if attrs["scope"] == "global"
                                 else local_vars)[attrs["var"]]
                        index = temps[op.args[0]]
                        self._check_bounds(op, index, len(array))
                        temps[op.dst] = array[index]
                    elif opcode == "stx":
                        attrs = op.attrs
                        array = (global_vars if attrs["scope"] == "global"
                                 else local_vars)[attrs["var"]]
                        index = temps[op.args[0]]
                        self._check_bounds(op, index, len(array))
                        array[index] = temps[op.args[1]]
                    elif opcode == "bin":
                        temps[op.dst] = eval_binop(
                            op.attrs["op"],
                            temps[op.args[0]],
                            temps[op.args[1]],
                            op.attrs["ctype"],
                        )
                    elif opcode == "un":
                        temps[op.dst] = eval_unop(
                            op.attrs["op"], temps[op.args[0]],
                            op.attrs["ctype"],
                        )
                    elif opcode == "cast":
                        temps[op.dst] = eval_cast(
                            temps[op.args[0]], op.attrs["to_type"]
                        )
                    elif opcode == "call":
                        value = yield from self._run(
                            self._callee_frame(frame, op)
                        )
                        if op.dst is not None:
                            temps[op.dst] = value
                    elif opcode == "comm":
                        attrs = op.attrs
                        chan = temps[op.args[0]]
                        count = temps[op.args[1]]
                        var = attrs["var"]
                        array = (global_vars if attrs["scope"] == "global"
                                 else local_vars)[var]
                        if count < 0 or count > len(array):
                            raise InterpreterError(
                                "comm count %d out of range for %r[%d]"
                                % (count, var, len(array))
                            )
                        if attrs["kind"] == "send":
                            yield ("send", chan, array[:count])
                        else:
                            array[:count] = yield ("recv", chan, count)
                    elif opcode == "br":
                        attrs = op.attrs
                        block = blocks[
                            attrs["true_label"]
                            if cnum.as_bool(temps[op.args[0]])
                            else attrs["false_label"]
                        ]
                        break
                    elif opcode == "jmp":
                        block = blocks[op.attrs["label"]]
                        break
                    elif opcode == "ret":
                        return temps[op.args[0]] if op.args else None
                    else:  # pragma: no cover
                        raise InterpreterError("unknown opcode %r" % opcode)
                else:
                    raise InterpreterError(
                        "block %s fell through without terminator"
                        % block.label
                    )
        finally:
            self._depth -= 1

    def _init_locals(self, frame):
        func = frame.func
        for name, ctype in func.locals.items():
            if name in frame.locals:
                continue  # parameter
            if is_array(ctype):
                init = func.local_array_inits.get(name)
                if init is not None:
                    values = list(init)
                    pad = ctype.size - len(values)
                    if pad:
                        values.extend([default_value(ctype.elem)] * pad)
                    frame.locals[name] = values
                else:
                    frame.locals[name] = [default_value(ctype.elem)] * ctype.size
            else:
                frame.locals[name] = default_value(ctype)

    def _callee_frame(self, frame, op):
        """The callee's frame for a ``call`` op, arguments bound."""
        callee = self.program.function(op.attrs["func"])
        inner = _Frame(callee)
        temps = frame.temps
        for (name, ctype), spec in zip(callee.params, op.attrs["arg_spec"]):
            if spec[0] == "temp":
                value = temps[op.args[spec[1]]]
                inner.locals[name] = (
                    float(value) if ctype == FLOAT else value
                )
            else:  # ("array", var, scope)
                _, var, scope = spec
                inner.locals[name] = (
                    self.globals if scope == "global" else frame.locals
                )[var]
        return inner

    @staticmethod
    def _check_bounds(op, index, size):
        if not isinstance(index, int) or index < 0 or index >= size:
            raise InterpreterError(
                "index %r out of bounds for %r[%d] (line %s)"
                % (index, op.attrs["var"], size, op.line)
            )


def run_function(ir_program, func_name, *args, comm=None):
    """One-shot convenience: interpret ``func_name`` and return its value."""
    return Interpreter(ir_program, comm=comm).call(func_name, *args)
