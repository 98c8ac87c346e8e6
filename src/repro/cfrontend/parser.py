"""Recursive-descent parser for CMini.

Produces the AST defined in :mod:`repro.cfrontend.cast`.  Expression parsing
uses precedence climbing with C's precedence table (minus pointers, commas
and the address-of family, which CMini does not have).
"""

from __future__ import annotations

from . import cast
from .ctypes_ import ArrayType, FLOAT, INT, VOID
from .errors import ParseError
from .lexer import tokenize

# Binary operator precedence, higher binds tighter (C levels).
_BINARY_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6,
    "!=": 6,
    "<": 7,
    ">": 7,
    "<=": 7,
    ">=": 7,
    "<<": 8,
    ">>": 8,
    "+": 9,
    "-": 9,
    "*": 10,
    "/": 10,
    "%": 10,
}

_ASSIGN_OPS = frozenset(["=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="])

_TYPE_KEYWORDS = {"int": INT, "float": FLOAT, "void": VOID}


class Parser:
    """Parses a token stream into a :class:`~repro.cfrontend.cast.Program`."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    # -- token helpers -----------------------------------------------------
    #
    # ``pos`` never moves past the trailing ``eof`` token, so the current
    # token is always ``self.tokens[self.pos]``; only lookahead is clamped.

    def _peek(self, offset=0):
        if offset:
            return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]
        return self.tokens[self.pos]

    def _advance(self):
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def _check(self, kind, value=None):
        tok = self.tokens[self.pos]
        return tok.kind == kind and (value is None or tok.value == value)

    def _match(self, kind, value=None):
        tok = self.tokens[self.pos]
        if tok.kind != kind or (value is not None and tok.value != value):
            return None
        return self._advance()

    def _expect(self, kind, value=None):
        tok = self._peek()
        if not self._check(kind, value):
            want = value if value is not None else kind
            raise ParseError(
                "expected %r, found %r" % (want, tok.value or tok.kind),
                tok.line,
                tok.col,
            )
        return self._advance()

    # -- top level -----------------------------------------------------------

    def parse_program(self):
        decls = []
        while not self._check("eof"):
            decls.extend(self._parse_top_level())
        return cast.Program(decls)

    def _parse_top_level(self):
        is_const = bool(self._match("kw", "const"))
        type_tok = self._peek()
        base = self._parse_type_keyword()
        name_tok = self._expect("id")
        if self._check("punct", "("):
            if is_const:
                raise ParseError("functions cannot be const", type_tok.line)
            return [self._parse_function(base, name_tok)]
        return self._parse_var_decl_tail(base, name_tok, is_const)

    def _parse_type_keyword(self):
        tok = self._peek()
        if tok.kind == "kw" and tok.value in _TYPE_KEYWORDS:
            self._advance()
            return _TYPE_KEYWORDS[tok.value]
        raise ParseError("expected a type name", tok.line, tok.col)

    def _parse_function(self, ret_type, name_tok):
        self._expect("punct", "(")
        params = []
        if not self._check("punct", ")"):
            if self._check("kw", "void") and self._peek(1).value == ")":
                self._advance()
            else:
                params.append(self._parse_param())
                while self._match("punct", ","):
                    params.append(self._parse_param())
        self._expect("punct", ")")
        body = self._parse_block()
        return cast.FuncDecl(name_tok.value, ret_type, params, body, name_tok.line)

    def _parse_param(self):
        base = self._parse_type_keyword()
        if base == VOID:
            tok = self._peek()
            raise ParseError("parameters cannot be void", tok.line, tok.col)
        name_tok = self._expect("id")
        ctype = base
        if self._match("punct", "["):
            size = None
            if self._check("int"):
                size = self._advance().value
            self._expect("punct", "]")
            ctype = ArrayType(base, size)
        return cast.Param(name_tok.value, ctype, name_tok.line)

    def _parse_var_decl_tail(self, base, name_tok, is_const):
        """Parse the remainder of ``<type> name ...;`` (possibly a decl list)."""
        if base == VOID:
            raise ParseError("variables cannot be void", name_tok.line)
        decls = [self._parse_one_declarator(base, name_tok, is_const)]
        while self._match("punct", ","):
            next_name = self._expect("id")
            decls.append(self._parse_one_declarator(base, next_name, is_const))
        self._expect("punct", ";")
        return decls

    def _parse_one_declarator(self, base, name_tok, is_const):
        ctype = base
        if self._match("punct", "["):
            size_expr = None
            if not self._check("punct", "]"):
                size_expr = self._parse_expression()
            self._expect("punct", "]")
            ctype = ("array", base, size_expr)  # resolved by semantic analysis
        init = None
        if self._match("op", "="):
            if self._check("punct", "{"):
                init = self._parse_array_initializer()
            else:
                init = self._parse_assignment()
        return cast.VarDecl(name_tok.value, ctype, init, is_const, name_tok.line)

    def _parse_array_initializer(self):
        self._expect("punct", "{")
        items = []
        if not self._check("punct", "}"):
            items.append(self._parse_assignment())
            while self._match("punct", ","):
                if self._check("punct", "}"):
                    break  # trailing comma
                items.append(self._parse_assignment())
        self._expect("punct", "}")
        return items

    # -- statements ----------------------------------------------------------

    def _parse_block(self):
        open_tok = self._expect("punct", "{")
        stmts = []
        while not self._check("punct", "}"):
            if self._check("eof"):
                raise ParseError("unterminated block", open_tok.line)
            stmts.extend(self._parse_statement())
        self._expect("punct", "}")
        return cast.Block(stmts, open_tok.line)

    def _parse_statement(self):
        """Parse one statement; returns a list (declarations may expand)."""
        tok = self._peek()
        if tok.kind == "kw":
            if tok.value in _TYPE_KEYWORDS or tok.value == "const":
                is_const = bool(self._match("kw", "const"))
                base = self._parse_type_keyword()
                name_tok = self._expect("id")
                return self._parse_var_decl_tail(base, name_tok, is_const)
            if tok.value == "if":
                return [self._parse_if()]
            if tok.value == "while":
                return [self._parse_while()]
            if tok.value == "do":
                return [self._parse_do_while()]
            if tok.value == "for":
                return [self._parse_for()]
            if tok.value == "return":
                self._advance()
                value = None
                if not self._check("punct", ";"):
                    value = self._parse_expression()
                self._expect("punct", ";")
                return [cast.Return(value, tok.line)]
            if tok.value == "break":
                self._advance()
                self._expect("punct", ";")
                return [cast.Break(tok.line)]
            if tok.value == "continue":
                self._advance()
                self._expect("punct", ";")
                return [cast.Continue(tok.line)]
        if self._check("punct", "{"):
            return [self._parse_block()]
        if self._match("punct", ";"):
            return []
        expr = self._parse_expression()
        self._expect("punct", ";")
        return [cast.ExprStmt(expr, tok.line)]

    def _parse_if(self):
        tok = self._expect("kw", "if")
        self._expect("punct", "(")
        cond = self._parse_expression()
        self._expect("punct", ")")
        then = self._parse_statement_as_block()
        other = None
        if self._match("kw", "else"):
            other = self._parse_statement_as_block()
        return cast.If(cond, then, other, tok.line)

    def _parse_statement_as_block(self):
        stmts = self._parse_statement()
        if len(stmts) == 1 and isinstance(stmts[0], cast.Block):
            return stmts[0]
        return cast.Block(stmts)

    def _parse_while(self):
        tok = self._expect("kw", "while")
        self._expect("punct", "(")
        cond = self._parse_expression()
        self._expect("punct", ")")
        body = self._parse_statement_as_block()
        return cast.While(cond, body, tok.line)

    def _parse_do_while(self):
        tok = self._expect("kw", "do")
        body = self._parse_statement_as_block()
        self._expect("kw", "while")
        self._expect("punct", "(")
        cond = self._parse_expression()
        self._expect("punct", ")")
        self._expect("punct", ";")
        return cast.DoWhile(body, cond, tok.line)

    def _parse_for(self):
        tok = self._expect("kw", "for")
        self._expect("punct", "(")
        init = None
        if not self._check("punct", ";"):
            peek = self._peek()
            if peek.kind == "kw" and peek.value in _TYPE_KEYWORDS:
                base = self._parse_type_keyword()
                name_tok = self._expect("id")
                decls = []
                decls.append(self._parse_one_declarator(base, name_tok, False))
                while self._match("punct", ","):
                    next_name = self._expect("id")
                    decls.append(self._parse_one_declarator(base, next_name, False))
                self._expect("punct", ";")
                init = decls
            else:
                init = [cast.ExprStmt(self._parse_expression(), peek.line)]
                self._expect("punct", ";")
        else:
            self._expect("punct", ";")
        cond = None
        if not self._check("punct", ";"):
            cond = self._parse_expression()
        self._expect("punct", ";")
        step = None
        if not self._check("punct", ")"):
            step = self._parse_expression()
        self._expect("punct", ")")
        body = self._parse_statement_as_block()
        return cast.For(init, cond, step, body, tok.line)

    # -- expressions -----------------------------------------------------------

    def _parse_expression(self):
        return self._parse_assignment()

    def _parse_assignment(self):
        left = self._parse_ternary()
        tok = self._peek()
        if tok.kind == "op" and tok.value in _ASSIGN_OPS:
            self._advance()
            if not isinstance(left, (cast.Name, cast.Index)):
                raise ParseError("invalid assignment target", tok.line, tok.col)
            value = self._parse_assignment()
            return cast.Assign(tok.value, left, value, tok.line)
        return left

    def _parse_ternary(self):
        cond = self._parse_binary(1)
        if self._match("op", "?"):
            then = self._parse_assignment()
            self._expect("op", ":")
            other = self._parse_ternary()
            return cast.Cond(cond, then, other, cond.line)
        return cond

    def _parse_binary(self, min_prec):
        left = self._parse_unary()
        while True:
            tok = self._peek()
            prec = _BINARY_PRECEDENCE.get(tok.value) if tok.kind == "op" else None
            if prec is None or prec < min_prec:
                return left
            self._advance()
            right = self._parse_binary(prec + 1)
            left = cast.BinOp(tok.value, left, right, tok.line)

    def _parse_unary(self):
        tok = self._peek()
        if tok.kind == "op" and tok.value in ("-", "!", "~", "+"):
            self._advance()
            operand = self._parse_unary()
            if tok.value == "+":
                return operand
            return cast.UnOp(tok.value, operand, tok.line)
        if tok.kind == "op" and tok.value in ("++", "--"):
            self._advance()
            target = self._parse_unary()
            if not isinstance(target, (cast.Name, cast.Index)):
                raise ParseError("invalid increment target", tok.line, tok.col)
            op = "+=" if tok.value == "++" else "-="
            return cast.Assign(op, target, cast.IntLit(1, tok.line), tok.line)
        if (
            tok.kind == "punct"
            and tok.value == "("
            and self._peek(1).kind == "kw"
            and self._peek(1).value in ("int", "float")
            and self._peek(2).value == ")"
        ):
            self._advance()
            target = _TYPE_KEYWORDS[self._advance().value]
            self._advance()
            operand = self._parse_unary()
            return cast.Cast(target, operand, tok.line)
        return self._parse_postfix()

    def _parse_postfix(self):
        expr = self._parse_primary()
        while True:
            if self._check("punct", "["):
                open_tok = self._advance()
                index = self._parse_expression()
                self._expect("punct", "]")
                if not isinstance(expr, cast.Name):
                    raise ParseError(
                        "only named arrays may be indexed", open_tok.line
                    )
                expr = cast.Index(expr, index, open_tok.line)
            elif self._check("op", "++") or self._check("op", "--"):
                # Postfix inc/dec is only supported as a statement (its value
                # is discarded); the semantic pass rejects value uses.
                tok = self._advance()
                if not isinstance(expr, (cast.Name, cast.Index)):
                    raise ParseError("invalid increment target", tok.line, tok.col)
                op = "+=" if tok.value == "++" else "-="
                expr = cast.Assign(op, expr, cast.IntLit(1, tok.line), tok.line)
            else:
                return expr

    def _parse_primary(self):
        tok = self._peek()
        if tok.kind == "int":
            self._advance()
            return cast.IntLit(tok.value, tok.line)
        if tok.kind == "float":
            self._advance()
            return cast.FloatLit(tok.value, tok.line)
        if tok.kind == "id":
            self._advance()
            if self._check("punct", "("):
                self._advance()
                args = []
                if not self._check("punct", ")"):
                    args.append(self._parse_assignment())
                    while self._match("punct", ","):
                        args.append(self._parse_assignment())
                self._expect("punct", ")")
                return cast.Call(tok.value, args, tok.line)
            return cast.Name(tok.value, tok.line)
        if tok.kind == "punct" and tok.value == "(":
            self._advance()
            expr = self._parse_expression()
            self._expect("punct", ")")
            return expr
        raise ParseError(
            "unexpected token %r" % (tok.value or tok.kind), tok.line, tok.col
        )


def parse(source):
    """Parse CMini source text into an (un-analyzed) AST program."""
    return Parser(tokenize(source)).parse_program()
