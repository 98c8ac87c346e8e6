"""Split a CMini translation unit into its *code* and its constant *data*.

Data is every brace list of numeric literals at brace depth 0, outside
comments: ``{1, -2, 0x1F, 1.5e3f,}``.  A literal may be negated (``-5``,
not ``- 5``) and a trailing comma is allowed.  In a valid program such a
list can only initialise a global array, and nothing downstream of the
front-end reads a global's initial value except to fill a running
instance's storage (:func:`repro.cdfg.ir.global_storage`, an ISA image's
data segment), so two sources that differ only in these lists lower to
the same functions.

:func:`split_data` replaces each list by a placeholder that keeps its
element count and its newline count; what remains is the *code text*.
Equal code texts therefore declare the same arrays with the same sizes,
and their functions sit on the same lines.  Local array initializers
(depth 1 and deeper) stay code, because the code generator embeds their
values.

Literals use the lexer's own sub-patterns and conversion
(:func:`repro.cfrontend.lexer.literal_value`), so one grammar defines a
number.  A list the grammar does not cover (a name, ``- 5``, a comment,
``1.5.3``) simply stays code.
"""

from __future__ import annotations

import re

from . import cast
from .ctypes_ import FLOAT
from .lexer import (
    COMMENT,
    FLOAT_LITERAL,
    HEX_LITERAL,
    INT_LITERAL,
    WHITESPACE,
    literal_value,
)

_WS = WHITESPACE + "*"
_NUMBER = "-?(?:%s|%s|%s)" % (HEX_LITERAL, FLOAT_LITERAL, INT_LITERAL)

# A comment, a data list or a single brace; comments pass through as code
# and every other brace only moves the depth.
_SCAN_RE = re.compile(
    COMMENT
    + r"|\{" + _WS + _NUMBER
    + "(?:" + _WS + "," + _WS + _NUMBER + ")*" + _WS + "(?:," + _WS + r")?\}"
    + r"|[{}]",
    re.DOTALL,
)

# One element of a list the scan accepted, in the lexer's alternative order.
_ELEMENT_RE = re.compile(
    "(?P<neg>-?)(?:(?P<hex>%s)|(?P<float>%s)|(?P<int>%s))"
    % (HEX_LITERAL, FLOAT_LITERAL, INT_LITERAL)
)

# A character only hex and float literals have.
_NOT_DECIMAL_RE = re.compile("[xX.eEfF]")

#: What :func:`list_values` raises for a list it cannot convert.
CONVERSION_ERRORS = (ValueError, OverflowError, IndexError)


def split_data(source):
    """``(code text, data lists)`` of ``source``.

    The data lists are the source texts of the depth-0 numeric brace
    lists, braces included, in source order; the code text is ``source``
    with each of them replaced by ``{<element count><its newlines>}``.
    """
    code = []
    lists = []
    depth = 0
    end = 0
    for match in _SCAN_RE.finditer(source):
        text = match.group()
        if text == "{":
            depth += 1
        elif text == "}":
            depth -= 1
        elif text[0] == "{" and depth == 0:
            trailing = text[:-1].rstrip(" \t\r\n").endswith(",")
            code.append(source[end:match.start()])
            code.append("{%d%s}" % (text.count(",") + (not trailing),
                                    "\n" * text.count("\n")))
            lists.append(text)
            end = match.end()
    code.append(source[end:])
    return "".join(code), lists


def list_values(text, ctype):
    """The initial value of array type ``ctype`` initialised by the data
    list ``text``: each literal negated as written, coerced to the element
    type and zero-padded to the declared size, as semantic analysis folds
    it.  Raises :class:`ValueError` (a malformed literal such as ``0x``),
    :class:`OverflowError` (an int too large for a float) or
    :class:`IndexError` (more literals than elements)."""
    coerce = float if ctype.elem == FLOAT else int
    if _NOT_DECIMAL_RE.search(text) is None:
        # Decimal ints only: ``int`` reads each item's sign and whitespace.
        items = text[1:-1].split(",")
        if not items[-1].strip(" \t\r\n"):
            items.pop()  # trailing comma
        values = list(map(coerce, map(int, items)))
    else:
        values = []
        for match in _ELEMENT_RE.finditer(text):
            kind = match.lastgroup
            value = literal_value(kind, match.group(kind))
            values.append(coerce(-value if match.group("neg") else value))
    if len(values) > ctype.size:
        raise IndexError("too many initializers")
    return values + [coerce(0)] * (ctype.size - len(values))


def _literal(expr):
    if isinstance(expr, cast.UnOp) and expr.op == "-":
        expr = expr.operand
    return isinstance(expr, (cast.IntLit, cast.FloatLit))


def data_globals(info):
    """Names of the globals of analysed ``info`` whose initializer is a
    non-empty brace list of (negated) literals, in declaration order.

    Every list :func:`split_data` cuts from a valid program initialises
    one of these, in the same order; a list the scan leaves as code (say
    ``{- 5}``) makes this sequence the longer one."""
    return [
        name for name, symbol in info.globals.items()
        if isinstance(symbol.decl.init, list) and symbol.decl.init
        and all(map(_literal, symbol.decl.init))
    ]
