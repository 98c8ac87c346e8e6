"""Differential tests of the code/data split of the front-end stage.

A source whose code text (see :mod:`repro.cfrontend.datasplit`) is already
cached binds its data lists into the cached functions instead of being
parsed.  Every such bind must equal a cold ``compile_process`` of the same
source, and every source the bind cannot take must fall back to the full
parse, raising exactly what a cold store raises.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.apps.jpeg import build_jpeg_design
from repro.apps.mp3 import VARIANTS, Mp3Params, build_design
from repro.artifacts import ArtifactStore
from repro.cdfg.irhash import ir_fingerprint, source_fingerprint
from repro.cfrontend.datasplit import split_data
from repro.cfrontend.errors import CMiniError, LexError
from repro.codegen.pygen import generate_source
from repro.estimation import annotate_ir_program
from repro.pum import microblaze
from repro.tlm import Design, ProcessDecl, generate_tlm
from repro.tlm import generator
from repro.tlm.generator import (
    CODE_IR_KIND,
    GenerationReport,
    _frontend_stage,
    compile_process,
)


def _lower(store, source):
    """``(IR program, fingerprint)`` of ``source`` through the cached
    front-end stage on ``store``."""
    decl = ProcessDecl("p", source, "main", "cpu")
    return _frontend_stage(store, GenerationReport("t", True), decl)


def _assert_like_cold(lowered, source):
    cold = compile_process(ProcessDecl("p", source, "main", "cpu"))
    program, fingerprint = lowered
    assert repr(program.globals) == repr(cold.globals)
    assert fingerprint == ir_fingerprint(cold)
    assert sorted(program.functions) == sorted(cold.functions)


def _design(source):
    design = Design("split")
    design.add_pe("cpu", microblaze(8192, 4096))
    design.add_process("p", source, "main", "cpu")
    return design


def _forbid_parse(monkeypatch):
    """Make any full parse in the generator fail the test."""
    def parse(source):
        raise AssertionError("the front-end parsed a bound source")

    monkeypatch.setattr(generator, "parse_and_analyze", parse)


# -- the premise: data never reaches annotation or codegen -------------------

def _seed_pairs():
    for variant in VARIANTS:
        yield pytest.param(
            lambda seed, v=variant: build_design(
                v, Mp3Params(), n_frames=1, seed=seed)[0],
            id="mp3-" + variant)
    for offload in (False, True):
        yield pytest.param(
            lambda seed, o=offload: build_jpeg_design(o, seed=seed),
            id="jpeg-" + ("hw" if offload else "sw"))


@pytest.mark.parametrize("build", list(_seed_pairs()))
class TestDataOnlyChange:
    SEEDS = (3, 4)

    def test_same_code_delays_and_module(self, build):
        designs = [build(seed) for seed in self.SEEDS]
        first, second = (design.processes for design in designs)
        assert any(first[name].source != second[name].source
                   for name in first)
        for name, decl in first.items():
            pum = designs[0].pes[decl.pe_name].pum
            outputs = []
            for processes in (first, second):
                ir_program = compile_process(processes[name])
                annotate_ir_program(ir_program, pum)
                outputs.append((
                    ir_fingerprint(ir_program),
                    {fn: [block.delay for block in func.blocks]
                     for fn, func in ir_program.functions.items()},
                    generate_source(ir_program, True),
                ))
            assert outputs[0] == outputs[1], name

    def test_second_seed_binds_without_parsing(self, build, monkeypatch):
        store = ArtifactStore()
        generate_tlm(build(self.SEEDS[0]), timed=True, store=store)
        design = build(self.SEEDS[1])
        cold = generate_tlm(design, timed=True, store=False).run()
        _forbid_parse(monkeypatch)
        report = GenerationReport(design.name, True)
        warm = generate_tlm(design, timed=True, store=store, report=report)
        processes = len(design.processes)
        assert report.stage_hits["annotate"] == processes
        assert report.stage_hits["codegen"] == processes
        result = warm.run()
        assert result.makespan_cycles == cold.makespan_cycles
        assert {name: (p.cycles, p.return_value)
                for name, p in result.processes.items()} \
            == {name: (p.cycles, p.return_value)
                for name, p in cold.processes.items()}


# -- random translation units ------------------------------------------------

_INT_TEXT = st.one_of(
    st.integers(0, 10 ** 6).map(str),
    st.integers(0, 2 ** 20).map(lambda v: "0x%x" % v),
    st.integers(0, 2 ** 20).map(lambda v: "0X%X" % v),
    st.integers(0, 99).map(lambda v: "%03d" % v),  # leading zeros: decimal
)
_FLOAT_TEXT = st.one_of(
    st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False).map(repr),
    st.tuples(st.integers(0, 999), st.integers(-6, 6)).map(
        lambda t: "%de%d" % t),
    st.tuples(st.integers(0, 99), st.integers(0, 99)).map(
        lambda t: "%d.%02dE+1" % t),
    st.tuples(st.integers(0, 99), st.sampled_from(["f", "F"])).map(
        lambda t: "%d.5%s" % t),
    st.integers(0, 99).map(lambda v: "%df" % v),
    st.integers(0, 99).map(lambda v: ".%d" % v),
)
_LITERAL = st.tuples(st.booleans(), st.one_of(_INT_TEXT, _FLOAT_TEXT)).map(
    lambda t: ("-" if t[0] else "") + t[1])


@st.composite
def _shapes(draw):
    """The code of a translation unit: its arrays' types, sizes, element
    counts and line breaks."""
    arrays = []
    for index in range(draw(st.integers(1, 4))):
        count = draw(st.integers(1, 6))
        arrays.append({
            "name": "A%d" % index,
            "elem": draw(st.sampled_from(["int", "float"])),
            "const": draw(st.booleans()),
            "count": count,
            "size": draw(st.one_of(st.none(), st.integers(count, count + 3))),
            "breaks": draw(st.lists(st.booleans(), min_size=count + 1,
                                    max_size=count + 1)),
            "trailing": draw(st.booleans()),
        })
    return arrays


def _source(arrays, literals):
    """CMini text declaring ``arrays`` with data ``literals`` and a main
    that folds every element into its return value."""
    lines = ["const int K = 3;", "// int X[2] = {1, 2};",
             "/* float Y[1] = {\n0.5}; */"]
    body = ["  float acc = 0.0;"]
    for array, values in zip(arrays, literals):
        items = []
        for value, brk in zip(values, array["breaks"]):
            items.append(("\n" if brk else " ") + value)
        text = ",".join(items) + ("," if array["trailing"] else "")
        text += "\n" if array["breaks"][-1] else " "
        size = array["size"]
        lines.append("%s%s %s[%s] = {%s};" % (
            "const " if array["const"] else "", array["elem"], array["name"],
            "" if size is None else size, text))
        n = array["count"] if size is None else size
        body.append("  for (int i = 0; i < %d; i++) acc = acc * 0.5 + %s[i]"
                    " * (i + K);" % (n, array["name"]))
    body.append("  int r = acc;")
    body.append("  return r;")
    return "\n".join(lines + ["int main(void) {"] + body + ["}", ""])


def _data(arrays):
    return st.tuples(*[
        st.lists(_LITERAL, min_size=a["count"], max_size=a["count"])
        for a in arrays
    ])


class TestRandomUnits:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_bound_data_equals_cold_parse(self, data):
        arrays = data.draw(_shapes())
        first = _source(arrays, data.draw(_data(arrays)))
        second = _source(arrays, data.draw(_data(arrays)))
        assume(first != second)
        assert split_data(first)[0] == split_data(second)[0]
        store = ArtifactStore()
        _lower(store, first)
        bound = _lower(store, second)
        assert store.stats(CODE_IR_KIND).hits == 1
        _assert_like_cold(bound, second)
        warm = generate_tlm(_design(second), timed=False, store=store).run()
        cold = generate_tlm(_design(second), timed=False, store=False).run()
        assert warm.process("p").return_value == \
            cold.process("p").return_value


# -- what stays code, or falls back to a full parse --------------------------

MAIN = "\nint main(void) { return 0; }\n"


class TestStaysCode:
    def test_local_initializer_is_code(self):
        base = "int main(void) { int t[3] = {1, 2, 3}; return t[1]; }"
        other = base.replace("{1, 2, 3}", "{1, 7, 3}")
        assert split_data(base) == (base, [])
        store = ArtifactStore()
        _lower(store, base)
        lowered = _lower(store, other)
        _assert_like_cold(lowered, other)
        assert generate_tlm(_design(other), timed=False, store=store).run() \
            .process("p").return_value == 7

    @pytest.mark.parametrize("comment", [
        "// int X[2] = {1, 2};\n", "/* int X[2] = {1, 2}; */\n",
    ])
    def test_list_in_a_comment_is_code(self, comment):
        source = comment + "int a[2] = {5, 6};" + MAIN
        code, lists = split_data(source)
        assert lists == ["{5, 6}"]
        assert code == comment + "int a[2] = {2};" + MAIN

    @pytest.mark.parametrize("text", ["{K, 1}", "{- 5, 1}", "{1, /* c */ 2}",
                                      "{+5, 1}", "{(1), 2}"])
    def test_non_literal_list_falls_back(self, text):
        template = "const int K = 4;\nint a[2] = %s;" + MAIN
        store = ArtifactStore()
        for source in (template % text, template % text.replace("1", "9")):
            _assert_like_cold(_lower(store, source), source)
        assert split_data(template % text)[1] == []

    @pytest.mark.parametrize("other", [
        "int a[3] = {1, 2};",      # element count
        "int a[3] = {1,\n2, 3};",  # line count
    ])
    def test_changed_count_or_lines_is_new_code(self, other):
        base = "int a[3] = {1, 2, 3};" + MAIN
        changed = other + MAIN
        assert split_data(base)[0] != split_data(changed)[0]
        store = ArtifactStore()
        _lower(store, base)
        _assert_like_cold(_lower(store, changed), changed)
        assert store.stats(CODE_IR_KIND).hits == 0

    def test_lines_after_a_list_stay_right(self, monkeypatch):
        base = "int a[2] = {1,\n2};\nint main(void) { return a[1]; }\n"
        store = ArtifactStore()
        _lower(store, base)
        _forbid_parse(monkeypatch)
        program, _ = _lower(store, base.replace("2}", "-8}"))
        assert program.globals["a"][1] == [1, -8]
        assert program.function("main").blocks[-1].ops[-1].line == 3

    def test_const_arrays_do_not_fold(self):
        source = ("const int A[2] = {1, 2}; const int B[2] = {1, 3};\n"
                  "int x = A < B;" + MAIN)
        with pytest.raises(CMiniError, match="not a compile-time constant"):
            compile_process(ProcessDecl("p", source, "main", "cpu"))


# -- malformed data raises what a cold store raises --------------------------

VALID = "int a[3] = {1, 2, 3};\nint x = 4;" + MAIN


class TestErrorsOnAWarmStore:
    @pytest.mark.parametrize("bad", [
        "int a[3] = {1, 0x, 3};\nint x = 4;",
        "int a[3] = {1, 1.5.3, 3};\nint x = 4;",
        "int a[3] = {1, 2x, 3};\nint x = 4;",
        "int a[3] = {1, 2, 3, 4};\nint x = 4;",
        "int a[3] = {1, 2, 3};\nint x = {4};",
        "int a[3] = {1, 2, 3};\nfloat x = {4.0,};",
    ])
    def test_same_error_as_cold(self, bad):
        source = bad + MAIN
        with pytest.raises(CMiniError) as cold:
            _lower(ArtifactStore(), source)
        store = ArtifactStore()
        _lower(store, VALID)
        for _ in range(2):  # errors are never cached
            with pytest.raises(CMiniError) as warm:
                _lower(store, source)
            assert type(warm.value) is type(cold.value)
            assert str(warm.value) == str(cold.value)

    def test_overflowing_literal_raises_like_cold(self):
        source = "float a[1] = {%s};" % ("9" * 400) + MAIN
        with pytest.raises(OverflowError) as cold:
            _lower(ArtifactStore(), source)
        store = ArtifactStore()
        _lower(store, "float a[1] = {1};" + MAIN)
        with pytest.raises(OverflowError) as warm:
            _lower(store, source)
        assert str(warm.value) == str(cold.value)


# -- source identity ---------------------------------------------------------

class TestSourceFingerprint:
    def test_lone_surrogate_is_its_own_source(self):
        plain = "int main(void) { return 1 ? 2 : 3; }"
        odd = plain.replace("?", "\ud800")
        assert source_fingerprint(plain) != source_fingerprint(odd)
        store = ArtifactStore()
        program, _ = _lower(store, plain)
        assert "main" in program.functions
        with pytest.raises(LexError, match="unexpected character"):
            _lower(store, odd)
