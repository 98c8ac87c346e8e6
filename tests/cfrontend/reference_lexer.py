"""The character-at-a-time CMini scanner, kept as a test oracle.

This is the lexer :mod:`repro.cfrontend.lexer` replaced with one master
regular expression.  It is changed only by two fixes that the production
lexer shares: the lexical grammar is ASCII (a non-ASCII letter or digit is
an unexpected character), and a hex literal may not run into a letter or
``_``.  The differential tests require both lexers to give the same token
list, or the same :class:`LexError`, for every input.

:class:`ReferenceParser` likewise keeps the parser's original bounds-checked
token accessors, so the tests can compare ASTs built both ways.
"""

from __future__ import annotations

from repro.cfrontend.errors import LexError
from repro.cfrontend.lexer import _OPERATORS, _PUNCTUATION, KEYWORDS, Token
from repro.cfrontend.parser import Parser


def _is_alpha(ch):
    return ch.isascii() and ch.isalpha()


def _is_digit(ch):
    return ch.isascii() and ch.isdigit()


def _is_alnum(ch):
    return ch.isascii() and ch.isalnum()


class Lexer:
    """Scans CMini source text into a token stream."""

    def __init__(self, source):
        self.source = source
        self.pos = 0
        self.line = 1
        self.col = 1

    def tokenize(self):
        """Return the full token list, terminated by an ``eof`` token."""
        tokens = []
        while True:
            self._skip_whitespace_and_comments()
            if self.pos >= len(self.source):
                tokens.append(Token("eof", "", self.line, self.col))
                return tokens
            tokens.append(self._next_token())

    # -- internals ---------------------------------------------------------

    def _peek(self, offset=0):
        idx = self.pos + offset
        if idx < len(self.source):
            return self.source[idx]
        return ""

    def _advance(self, count=1):
        for _ in range(count):
            if self.pos < len(self.source):
                if self.source[self.pos] == "\n":
                    self.line += 1
                    self.col = 1
                else:
                    self.col += 1
                self.pos += 1

    def _skip_whitespace_and_comments(self):
        while self.pos < len(self.source):
            ch = self._peek()
            if ch in " \t\r\n":
                self._advance()
            elif ch == "/" and self._peek(1) == "/":
                while self.pos < len(self.source) and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                start_line = self.line
                self._advance(2)
                while self.pos < len(self.source):
                    if self._peek() == "*" and self._peek(1) == "/":
                        self._advance(2)
                        break
                    self._advance()
                else:
                    raise LexError("unterminated block comment", start_line)
            else:
                return

    def _next_token(self):
        ch = self._peek()
        line, col = self.line, self.col
        if _is_alpha(ch) or ch == "_":
            return self._lex_word(line, col)
        if _is_digit(ch) or (ch == "." and _is_digit(self._peek(1))):
            return self._lex_number(line, col)
        for op in _OPERATORS:
            if self.source.startswith(op, self.pos):
                self._advance(len(op))
                return Token("op", op, line, col)
        if ch in _PUNCTUATION:
            self._advance()
            return Token("punct", ch, line, col)
        raise LexError("unexpected character %r" % ch, line, col)

    def _lex_word(self, line, col):
        start = self.pos
        while self.pos < len(self.source) and (
            _is_alnum(self._peek()) or self._peek() == "_"
        ):
            self._advance()
        word = self.source[start : self.pos]
        kind = "kw" if word in KEYWORDS else "id"
        return Token(kind, word, line, col)

    def _lex_number(self, line, col):
        start = self.pos
        is_float = False
        if self._peek() == "0" and self._peek(1) != "" and self._peek(1) in "xX":
            self._advance(2)
            if not self._is_hex(self._peek()):
                raise LexError("malformed hex literal", line, col)
            while self._is_hex(self._peek()):
                self._advance()
            if _is_alpha(self._peek()) or self._peek() == "_":
                raise LexError("malformed numeric literal", line, col)
            text = self.source[start : self.pos]
            return Token("int", int(text, 16), line, col)
        while _is_digit(self._peek()):
            self._advance()
        if self._peek() == ".":
            is_float = True
            self._advance()
            while _is_digit(self._peek()):
                self._advance()
        if self._peek() != "" and self._peek() in "eE":
            probe = 1
            if self._peek(1) != "" and self._peek(1) in "+-":
                probe = 2
            if _is_digit(self._peek(probe)):
                is_float = True
                self._advance(probe)
                while _is_digit(self._peek()):
                    self._advance()
        if self._peek() != "" and self._peek() in "fF":
            is_float = True
            text = self.source[start : self.pos]
            self._advance()
        else:
            text = self.source[start : self.pos]
        if _is_alpha(self._peek()) or self._peek() == "_":
            raise LexError("malformed numeric literal", line, col)
        if is_float:
            return Token("float", float(text), line, col)
        return Token("int", int(text, 10), line, col)

    @staticmethod
    def _is_hex(ch):
        return ch != "" and ch in "0123456789abcdefABCDEF"


def tokenize(source):
    """Tokenize ``source`` with the reference scanner."""
    return Lexer(source).tokenize()


class ReferenceParser(Parser):
    """The production parser with its original token accessors."""

    def _peek(self, offset=0):
        idx = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[idx]

    def _check(self, kind, value=None):
        tok = self._peek()
        if tok.kind != kind:
            return False
        return value is None or tok.value == value

    def _match(self, kind, value=None):
        if self._check(kind, value):
            return self._advance()
        return None


def parse(source):
    """Parse ``source`` with the reference scanner and accessors."""
    return ReferenceParser(tokenize(source)).parse_program()
