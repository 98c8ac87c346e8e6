"""Error types raised by the CMini front-end.

All front-end errors carry a source location so tooling built on top of the
library (annotators, TLM generators) can point the user at the offending line.
A malformed source is bad input, so every front-end error is an
:class:`~repro.errors.InputError` (CLI exit code 2) with its own stable
``code`` slug.
"""

from __future__ import annotations

from ..errors import InputError


class CMiniError(InputError):
    """Base class for all CMini front-end errors."""

    code = "cmini"

    def __init__(self, message, line=None, col=None):
        self.message = message
        self.line = line
        self.col = col
        super().__init__(self._format())

    def _format(self):
        if self.line is None:
            return self.message
        if self.col is None:
            return "line %d: %s" % (self.line, self.message)
        return "line %d:%d: %s" % (self.line, self.col, self.message)


class LexError(CMiniError):
    """Raised when the lexer encounters an invalid character or literal."""

    code = "cmini-lex"


class ParseError(CMiniError):
    """Raised when the parser encounters an unexpected token."""

    code = "cmini-parse"


class SemanticError(CMiniError):
    """Raised by semantic analysis: type errors, undefined names, etc."""

    code = "cmini-semantic"
