"""Differential tests: the regex lexer against the character-at-a-time oracle.

Both lexers must agree on every input: the same ``(kind, value, line, col)``
list, or a :class:`LexError` with the same message, line and column.  The
real sources (every MP3 variant, the JPEG and kernel apps, ``examples/``)
must also give structurally identical ASTs through the production parser
and through the parser with its original token accessors.
"""

import ast
import glob
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import dct_source, fir_source, sort_source
from repro.apps.jpeg import cpu_source as jpeg_cpu_source
from repro.apps.jpeg import dct_hw_source
from repro.apps.mp3 import Mp3Params
from repro.apps.mp3.designs import VARIANTS
from repro.apps.mp3.source import build_sources
from repro.cfrontend import cast
from repro.cfrontend.errors import LexError
from repro.cfrontend.lexer import tokenize
from repro.cfrontend.parser import parse

from . import reference_lexer

EXAMPLES = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "examples",
)

# The CMini alphabet one character at a time, plus fragments that sit on
# the lexer's decision points and characters outside the grammar.
ALPHABET = list(
    "aeEfFxX_gz019 \t\n\r.+-*/%<>=!&|^~?:(){}[];,"
) + ["/*", "*/", "//", "0x", "1e", "1.5f", "\r\n", "int", "é", "$"]


def lex(tokenizer, source):
    try:
        return [(t.kind, t.value, t.line, t.col) for t in tokenizer(source)]
    except LexError as exc:
        return ("LexError", exc.message, exc.line, exc.col)


def dump(node):
    """A node as nested tuples of its class, line and every field."""
    if isinstance(node, cast.Node):
        fields = tuple(
            (name, dump(getattr(node, name)))
            for owner in type(node).__mro__
            for name in getattr(owner, "__slots__", ())
        )
        return (type(node).__name__, fields)
    if isinstance(node, (list, tuple)):
        return tuple(dump(item) for item in node)
    return node


def example_sources():
    """Module-level strings in ``examples/*.py`` that hold a CMini program."""
    sources = []
    for path in sorted(glob.glob(os.path.join(EXAMPLES, "*.py"))):
        with open(path) as handle:
            tree = ast.parse(handle.read())
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str)
                    and "main(" in node.value.value):
                sources.append((
                    "%s:%s" % (os.path.basename(path), node.targets[0].id),
                    node.value.value,
                ))
    return sources


def all_sources():
    sources = []
    for variant in VARIANTS:
        cpu, hw, _ = build_sources(variant, Mp3Params(), n_frames=1, seed=1)
        sources.append(("mp3 %s cpu" % variant, cpu))
        sources.extend(
            ("mp3 %s %s" % (variant, unit), text)
            for unit, text in sorted(hw.items())
        )
    sources.append(("jpeg cpu", jpeg_cpu_source()))
    sources.append(("jpeg cpu offload", jpeg_cpu_source(offload_dct=True)))
    sources.append(("jpeg dct hw", dct_hw_source(6)))
    sources.append(("kernel dct", dct_source()))
    sources.append(("kernel fir", fir_source()))
    sources.append(("kernel sort", sort_source()))
    return sources + example_sources()


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.sampled_from(ALPHABET), max_size=40).map("".join))
def test_lexers_agree_on_random_text(source):
    assert lex(tokenize, source) == lex(reference_lexer.tokenize, source)


@pytest.mark.parametrize("source", [
    "", "a\r\nb", "x /* a\n b */ y // c\n", "/* open", "a\n  /* open\n",
    "0x", "0X1f", "0x1G", "0x_", "12abc", "1e", "1e+", "1e+5", "1.5e-3f",
    "1f", "1ff", ".5", "1.", "1..5", ".", ". 5", "00x5", "1_0",
    "int ²", "é", "aé", "1é", "٣", "\x0b", "$",
])
def test_lexers_agree_on_edge_cases(source):
    assert lex(tokenize, source) == lex(reference_lexer.tokenize, source)


def test_example_sources_found():
    names = [name for name, _ in example_sources()]
    assert {"quickstart.py:SOURCE", "rtos_shared_cpu.py:PRODUCER",
            "rtos_shared_cpu.py:CONSUMER"} <= set(names), names


@pytest.mark.parametrize("source", [
    pytest.param(source, id=name) for name, source in all_sources()
])
def test_real_sources_give_identical_tokens_and_asts(source):
    expected = lex(reference_lexer.tokenize, source)
    assert isinstance(expected, list), expected
    assert lex(tokenize, source) == expected
    assert dump(parse(source)) == dump(reference_lexer.parse(source))
