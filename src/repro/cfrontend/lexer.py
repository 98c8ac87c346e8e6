"""Tokenizer for CMini, the C subset accepted by the front-end.

CMini supports ``int``, ``float`` and ``void`` types, one-dimensional arrays,
functions, the usual statement forms (``if``/``else``, ``while``, ``for``,
``return``, ``break``, ``continue``) and C's arithmetic, comparison, logical
and bitwise operators.  Comments use ``//`` and ``/* ... */``.

The lexical grammar is ASCII: identifiers are ``[A-Za-z_][A-Za-z0-9_]*``
and digits are ``[0-9]``.  One compiled master regular expression scans the
source; each match is a token, a run of whitespace and comments, or one
character no rule accepts.  :func:`tokenize` walks the matches once and
builds the list of :class:`Token` values the recursive-descent parser
consumes.
"""

from __future__ import annotations

import re
import string

from .errors import LexError

KEYWORDS = frozenset(
    [
        "int",
        "float",
        "void",
        "const",
        "if",
        "else",
        "while",
        "for",
        "do",
        "return",
        "break",
        "continue",
    ]
)

# Multi-character operators, longest first so maximal munch works.
_OPERATORS = [
    "<<=",
    ">>=",
    "==",
    "!=",
    "<=",
    ">=",
    "&&",
    "||",
    "<<",
    ">>",
    "+=",
    "-=",
    "*=",
    "/=",
    "%=",
    "&=",
    "|=",
    "^=",
    "++",
    "--",
    "+",
    "-",
    "*",
    "/",
    "%",
    "<",
    ">",
    "=",
    "!",
    "&",
    "|",
    "^",
    "~",
    "?",
    ":",
]

_PUNCTUATION = "(){}[];,"

# The sub-patterns that define whitespace, comments and numeric literals;
# :mod:`repro.cfrontend.datasplit` composes its scan from the same strings.
# Numbers match greedily: a float needs a ``.``, an exponent or an ``f``
# suffix, and ``0x`` without digits still matches ``HEX_LITERAL`` so it can
# be reported.
WHITESPACE = r"[ \t\r\n]"
COMMENT = r"//[^\n]*|/\*.*?\*/"
HEX_LITERAL = r"0[xX][0-9a-fA-F]*"
FLOAT_LITERAL = (r"(?:[0-9]+\.[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?[fF]?"
                 r"|[0-9]+(?:[eE][+-]?[0-9]+[fF]?|[fF])")
INT_LITERAL = r"[0-9]+"

# Alternatives are tried in order.  Comments come before the operators so
# ``/*`` and ``//`` never lex as ``/``; a ``/*`` that ``skip`` cannot close
# falls through to ``open_comment``.
_TOKEN_RE = re.compile(
    r"(?P<skip>(?:" + WHITESPACE + "+|" + COMMENT + r")+)"
    r"|(?P<open_comment>/\*)"
    r"|(?P<hex>" + HEX_LITERAL + ")"
    r"|(?P<float>" + FLOAT_LITERAL + ")"
    r"|(?P<int>" + INT_LITERAL + ")"
    r"|(?P<word>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>" + "|".join(map(re.escape, _OPERATORS)) + ")"
    r"|(?P<punct>[" + re.escape(_PUNCTUATION) + "])"
    r"|(?P<other>.)",
    re.DOTALL,
)

# A numeric literal may not run straight into a letter or underscore.
_WORD_START = frozenset(string.ascii_letters + "_")


class Token:
    """A single lexical token.

    Attributes:
        kind: one of ``"id"``, ``"int"``, ``"float"``, ``"kw"``, ``"op"``,
            ``"punct"`` or ``"eof"``.
        value: the token text (or numeric value for literals).
        line, col: 1-based source position.
    """

    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col

    def __repr__(self):
        return "Token(%r, %r, line=%d, col=%d)" % (
            self.kind,
            self.value,
            self.line,
            self.col,
        )

    def __eq__(self, other):
        if not isinstance(other, Token):
            return NotImplemented
        return (self.kind, self.value) == (other.kind, other.value)

    def __hash__(self):
        return hash((self.kind, self.value))


def literal_value(kind, text):
    """The value of a numeric literal matched by the ``kind`` sub-pattern
    (``"int"``, ``"float"`` or ``"hex"``): base-10 or base-16 ints, and
    floats with any ``f``/``F`` suffix stripped."""
    if kind == "int":
        return int(text, 10)
    if kind == "float":
        return float(text.rstrip("fF"))
    return int(text, 16)


def tokenize(source):
    """Return the token list of ``source``, terminated by an ``eof`` token.

    Raises :class:`LexError` at the line and column of the first character
    that does not start a token (an unterminated block comment reports the
    line it opens on).
    """
    tokens = []
    append = tokens.append
    line = 1
    line_start = 0  # offset of the first character of ``line``
    for match in _TOKEN_RE.finditer(source):
        kind = match.lastgroup
        text = match.group()
        start = match.start()
        if kind == "skip":
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = start + text.rindex("\n") + 1
            continue
        col = start - line_start + 1
        if kind == "word":
            append(Token("kw" if text in KEYWORDS else "id", text, line, col))
        elif kind == "op" or kind == "punct":
            append(Token(kind, text, line, col))
        elif kind == "int" or kind == "float" or kind == "hex":
            if kind == "hex" and len(text) == 2:
                raise LexError("malformed hex literal", line, col)
            if source[match.end() : match.end() + 1] in _WORD_START:
                raise LexError("malformed numeric literal", line, col)
            append(Token("float" if kind == "float" else "int",
                         literal_value(kind, text), line, col))
        elif kind == "open_comment":
            raise LexError("unterminated block comment", line)
        else:
            raise LexError("unexpected character %r" % text, line, col)
    append(Token("eof", "", line, len(source) - line_start + 1))
    return tokens
