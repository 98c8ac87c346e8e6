"""CMini front-end: lexer, parser and semantic analysis.

CMini is the C subset used to write application processes in this
reproduction (the paper parses full C with LLVM; CMini covers the constructs
an MP3-style decoder needs: ints, floats, one-dimensional arrays, functions,
loops, and the ``send``/``recv`` communication intrinsics).
"""

from .cast import Program
from .ctypes_ import ArrayType, FLOAT, INT, VOID
from .errors import CMiniError, LexError, ParseError, SemanticError
from .lexer import Token, tokenize
from .parser import Parser, parse
from .semantic import COMM_BUILTINS, Analyzer, ProgramInfo, analyze, parse_and_analyze

__all__ = [
    "Analyzer",
    "ArrayType",
    "CMiniError",
    "COMM_BUILTINS",
    "FLOAT",
    "INT",
    "LexError",
    "ParseError",
    "Parser",
    "Program",
    "ProgramInfo",
    "SemanticError",
    "Token",
    "VOID",
    "analyze",
    "parse",
    "parse_and_analyze",
    "tokenize",
]
