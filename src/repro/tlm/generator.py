"""The TLM generator: design in, simulatable (timed) TLM out.

This is the flow of the paper's Fig. 2/3 end-to-end:

1. parse each application process into a CDFG (front-end + builder),
2. estimate per-basic-block delays on the mapped PE's PUM (Algorithms 1+2),
3. generate natively-executable timed code with ``wait()`` per block,
4. link everything with the simulation kernel and bus channels.

``generate_tlm(design, timed=False)`` produces the purely *functional* TLM
(no annotation, no waits) used as the speed baseline of Table 1.

Compile-once, explore-many
--------------------------

The pipeline is split into three explicitly cacheable stages, each keyed by
a content hash of its complete input and backed by an
:class:`~repro.artifacts.ArtifactStore`:

========== ============================================= ==================
stage      key                                           value (kind)
========== ============================================= ==================
frontend   ``source_fingerprint(source)``                lowered IR + its
                                                         code fingerprint
                                                         (``tlm-ir``)
           on a miss: ``code_fingerprint(code text)``    the code part
                                                         (``tlm-ir-code``)
annotate   ``ir_fp / pum_fp / i<icache> / d<dcache>``    per-function block
                                                         delays + their total
                                                         (``tlm-delays``)
codegen    annotation key × timed/granularity/quantum   generated module
           flags                                         source (``tlm-gensrc``),
                                                         compiled code object
                                                         (``tlm-code``)
           counting: ``ir_fp / count``                   the counting module
                                                         (same kinds)
========== ============================================= ==================

A design-space sweep varies the PUM (cache sizes, datapath widths …) while
the application sources stay fixed, so after the first point the front-end
stage is pure lookup; points that share a PUM (e.g. the same cache
configuration at a different mapping) additionally reuse annotation and
generated source, leaving only ``exec`` of an already-compiled module.  The
annotation key includes the configured cache sizes because the Algorithm-2
cache terms read them — unlike the per-block schedule memo, whose
Algorithm-1 inputs do not (see :func:`repro.pum.pum_fingerprint`).

A new input to the same process changes only its constant data (the
global brace lists of numeric literals, see
:mod:`repro.cfrontend.datasplit`).  A ``tlm-ir`` miss therefore first
looks the source's code text up in ``tlm-ir-code`` and, on a hit, binds
the new lists into a program that shares the cached functions; only a
new code text is parsed and lowered.  The IR fingerprint covers code
alone (global names and types, not values), so annotation and codegen
hit too: the paper annotates and compiles each process once and then
runs it on inputs.

The static estimator's counting modules (the counting emission of
:mod:`repro.codegen.pygen`, see
:func:`repro.estimation.staticest.profile_design`) read no delay, so their
codegen key is the IR fingerprint alone: one module per process code
serves every cache size, bus width and clock of a sweep.

``generate_tlm(..., store=False)`` opts a single call out; ``store=None``
(default) uses the process-wide default store (``REPRO_ARTIFACTS`` /
``REPRO_ARTIFACTS_DIR``), falling back to a private per-call store so
intra-design sharing still works when the default store is disabled.
"""

from __future__ import annotations

import contextlib
import time

from ..artifacts import ArtifactStore, content_key, default_store, register_kind
from ..cdfg.builder import build_program
from ..cdfg.ir import IRProgram
from ..cdfg.irhash import code_fingerprint, ir_fingerprint, source_fingerprint
from ..cfrontend.datasplit import (
    CONVERSION_ERRORS,
    data_globals,
    list_values,
    split_data,
)
from ..cfrontend.semantic import parse_and_analyze
from ..codegen.pygen import (
    generate_linear_source,
    generate_source,
    program_from_source,
    suspending_functions,
)
from ..estimation.annotator import AnnotationReport, annotate_ir_program
from ..pum.loader import pum_fingerprint
from .model import TLModel

#: The three cacheable stages, in pipeline order.
STAGES = ("frontend", "annotate", "codegen")

#: Lowered IR programs (plus their code fingerprint), keyed by source
#: fingerprint.  Memory-only: IR objects are cheap to rebuild and expensive
#: to serialise.
IR_KIND = "tlm-ir"

#: The data-independent part of a lowered source (a :class:`CodeIR`), keyed
#: by the fingerprint of its code text.  Memory-only, like ``tlm-ir``.
CODE_IR_KIND = "tlm-ir-code"

#: Per-function block-delay vectors and their total, keyed by IR × PUM
#: (incl. cache sizes).
DELAYS_KIND = "tlm-delays"

#: Generated module source (and suspending-function set) keyed by annotated
#: IR × codegen flags.
GENSRC_KIND = "tlm-gensrc"

#: Compiled code objects keyed by generated-source hash.  Memory-only: code
#: objects don't serialise to JSON (workers recompile from cached source).
CODE_KIND = "tlm-code"

register_kind(IR_KIND, version=1, disk=False)
register_kind(CODE_IR_KIND, version=1, disk=False)
# Version 2 added the stored delay ``total``; v1 entries on disk are stale.
register_kind(DELAYS_KIND, version=2, disk=True)
# Version 2: structured emission (loops as Python loops, folded scalars,
# range-checked wraps).  Version 3: modules import ``inf`` and ``nan``, which
# non-finite float literals need; older entries on disk are stale.
register_kind(GENSRC_KIND, version=3, disk=True)
register_kind(CODE_KIND, version=1, disk=False)


class GenerationReport:
    """Per-stage timing and cache statistics for one TLM generation
    (Table 1's "Anno." column, now with hit/miss counters).

    The three stage timers are *disjoint* — each stage is wrapped in its own
    ``perf_counter`` window, so :attr:`total_seconds` is exactly their sum
    (on a cache hit the window covers the lookup, which is why hit stages
    still report nonzero but tiny times).
    """

    def __init__(self, design_name, timed):
        self.design_name = design_name
        self.timed = timed
        self.stage_seconds = dict.fromkeys(STAGES, 0.0)
        self.stage_hits = dict.fromkeys(STAGES, 0)
        self.stage_misses = dict.fromkeys(STAGES, 0)
        self.per_process = {}  # process name -> AnnotationReport | None

    # Back-compat accessors (pre-pipeline callers read these fields).

    @property
    def frontend_seconds(self):
        return self.stage_seconds["frontend"]

    @property
    def annotation_seconds(self):
        return self.stage_seconds["annotate"]

    @property
    def codegen_seconds(self):
        return self.stage_seconds["codegen"]

    @property
    def total_seconds(self):
        return sum(self.stage_seconds.values())

    def _account(self, stage, seconds, hit):
        self.stage_seconds[stage] += seconds
        if hit:
            self.stage_hits[stage] += 1
        else:
            self.stage_misses[stage] += 1

    def summary(self):
        """A compact, picklable per-stage summary (worker transport form)."""
        return {
            "design": self.design_name,
            "timed": self.timed,
            "stage_seconds": dict(self.stage_seconds),
            "stage_hits": dict(self.stage_hits),
            "stage_misses": dict(self.stage_misses),
            "total_seconds": self.total_seconds,
        }

    def __repr__(self):
        return (
            "GenerationReport(%r: frontend=%.3fs, annotate=%.3fs, "
            "codegen=%.3fs, hits=%s)"
            % (
                self.design_name,
                self.frontend_seconds,
                self.annotation_seconds,
                self.codegen_seconds,
                self.stage_hits,
            )
        )


def merge_generation_summaries(summaries):
    """Aggregate per-point :meth:`GenerationReport.summary` dicts.

    Used by ``explore`` to fold every point's generation statistics (local
    or shipped back from workers) into one sweep-level summary.
    """
    total = {
        "points": 0,
        "stage_seconds": dict.fromkeys(STAGES, 0.0),
        "stage_hits": dict.fromkeys(STAGES, 0),
        "stage_misses": dict.fromkeys(STAGES, 0),
        "total_seconds": 0.0,
    }
    for summary in summaries:
        if not summary:
            continue
        total["points"] += 1
        for stage in STAGES:
            total["stage_seconds"][stage] += summary["stage_seconds"].get(
                stage, 0.0)
            total["stage_hits"][stage] += summary["stage_hits"].get(stage, 0)
            total["stage_misses"][stage] += summary["stage_misses"].get(
                stage, 0)
        total["total_seconds"] += summary.get("total_seconds", 0.0)
    return total


def compile_process(decl):
    """Front-end + lowering for one process declaration; returns IR."""
    program, info = parse_and_analyze(decl.source)
    return build_program(program, info)


def _resolve_store(store):
    """Map the ``store`` argument to an actual :class:`ArtifactStore`.

    ``None`` selects the process default (or, when that is disabled, a
    private throwaway store so processes sharing a source within one design
    still share work); ``False`` forces a private store (fully uncached
    across calls); an explicit store is used as-is.
    """
    if store is None:
        store = default_store()
    elif store is False:
        store = None
    if store is None:
        store = ArtifactStore()
    return store


class CodeIR:
    """One code text's lowered program, ready to take new data.

    ``program`` is the IR of the first source seen with this code text and
    ``fingerprint`` its :func:`ir_fingerprint`, which no data enters.
    ``slots`` names the global array each of the source's data lists
    initialises and ``texts`` holds those lists, in source order.
    """

    __slots__ = ("program", "fingerprint", "slots", "texts")

    def __init__(self, program, fingerprint, slots, texts):
        self.program = program
        self.fingerprint = fingerprint
        self.slots = slots
        self.texts = texts

    @classmethod
    def verified(cls, program, fingerprint, info, lists):
        """The code part of a fully parsed source, or ``None`` unless
        binding its own data ``lists`` gives exactly its parsed globals."""
        slots = data_globals(info)
        if len(slots) != len(lists):
            return None
        for name, text in zip(slots, lists):
            ctype, value = program.globals[name]
            try:
                bound = list_values(text, ctype)
            except CONVERSION_ERRORS:
                return None
            if repr(bound) != repr(value):
                return None
        return cls(program, fingerprint, slots, lists)

    def bind(self, lists):
        """``(IR program, fingerprint)`` of a source with this code text and
        data ``lists``: a new program sharing the cached functions, or
        ``None`` when a list does not convert (the full parse then raises
        what a cold parse raises).  A list equal to the cached one shares
        its value."""
        if len(lists) != len(self.slots):
            return None
        program = IRProgram()
        program.functions = self.program.functions
        program.globals = values = dict(self.program.globals)
        try:
            for name, text, known in zip(self.slots, lists, self.texts):
                if text != known:
                    ctype = values[name][0]
                    values[name] = (ctype, list_values(text, ctype))
        except CONVERSION_ERRORS:
            return None
        return program, self.fingerprint


def _lower_source(store, source):
    """``(lowered IR, IR fingerprint)`` of ``source``: its data bound into
    the code of an earlier source with the same code text, else a full
    parse whose code part is cached for the next such source."""
    code_text, lists = split_data(source)
    code_key = code_fingerprint(code_text)
    code = store.get(CODE_IR_KIND, code_key)
    if code is not None:
        bound = code.bind(lists)
        if bound is not None:
            return bound
    program, info = parse_and_analyze(source)
    ir_program = build_program(program, info)
    lowered = (ir_program, ir_fingerprint(ir_program))
    if code is None:
        code = CodeIR.verified(*lowered, info, lists)
        if code is not None:
            store.put(CODE_IR_KIND, code_key, code)
    return lowered


def _frontend_stage(store, report, decl):
    """Source text → (lowered IR, IR fingerprint)."""
    start = time.perf_counter()
    key = source_fingerprint(decl.source)
    cached = store.get(IR_KIND, key)
    hit = cached is not None
    if not hit:
        cached = _lower_source(store, decl.source)
        store.put(IR_KIND, key, cached)
    report._account("frontend", time.perf_counter() - start, hit)
    return cached


def _delays_key(ir_fp, pum):
    """Annotation-stage key: IR × PUM *including* the configured cache
    sizes, which the PUM fingerprint deliberately excludes (Algorithm 1
    never reads them) but the Algorithm-2 cache terms do.

    The PE clock stays out, as it does of the fingerprint: every annotated
    delay is a cycle count, and frequency only scales a cycle's wall
    duration inside the simulation kernel — so a frequency sweep shares one
    delay vector (and one generated TLM source) per cache configuration
    instead of re-annotating per clock value."""
    return "%s/%s/i%d/d%d" % (
        ir_fp, pum_fingerprint(pum), pum.icache_size, pum.dcache_size,
    )


def _annotate_stage(store, report, ir_program, pum, key, stamp=True):
    """Annotated IR (block delays applied in place) for one process.

    Returns ``(annotation, entry)``: an :class:`AnnotationReport` —
    synthesised from cached sizes (with the lookup wall time) on a hit —
    and the process's ``tlm-delays`` entry, whose ``total`` is the sum of
    every block delay.  On a hit the cached per-function delay vectors are
    re-applied to the (possibly shared) IR's blocks, so a cached IR
    annotated for a different PUM earlier in the sweep is always re-stamped
    before codegen; ``stamp=False`` skips that for callers that read only
    the entry.
    """
    start = time.perf_counter()
    cached = store.get(DELAYS_KIND, key)
    if cached is None:
        annotation = annotate_ir_program(ir_program, pum)
        functions = {
            name: [b.delay for b in ir_program.function(name).blocks]
            for name in ir_program.functions
        }
        cached = {
            "functions": functions,
            "total": sum(map(sum, functions.values())),
            "n_functions": annotation.n_functions,
            "n_blocks": annotation.n_blocks,
            "n_ops": annotation.n_ops,
        }
        store.put(DELAYS_KIND, key, cached)
        report._account("annotate", time.perf_counter() - start, False)
        return annotation, cached
    if stamp:
        for name, delays in cached["functions"].items():
            for block, delay in zip(ir_program.function(name).blocks, delays):
                block.delay = delay
    seconds = time.perf_counter() - start
    report._account("annotate", seconds, True)
    return AnnotationReport(
        pum.name, cached["n_functions"], cached["n_blocks"],
        cached["n_ops"], seconds,
    ), cached


@contextlib.contextmanager
def linear_emission():
    """Emit every process in the linear form while the block runs.

    The linear emission (:func:`~repro.codegen.pygen.generate_linear_source`)
    is the reference the structured one is checked against.  The codegen
    key does not name the emission, so generate inside the block with a
    private store (``store=False``).
    """
    global generate_source
    saved = generate_source
    generate_source = generate_linear_source
    try:
        yield
    finally:
        generate_source = saved


def _codegen_stage(store, report, ir_program, key, timed, granularity,
                   module_name):
    """Annotated IR → generated source → compiled, executable program.

    The *source* is what the disk store holds (portable, diffable); the
    compiled code object is memoized in memory keyed by the source hash, so
    a sweep pays ``compile()`` once per distinct module and only ``exec``
    (microseconds) per point.
    """
    start = time.perf_counter()
    cached = store.get(GENSRC_KIND, key)
    if cached is None:
        source = generate_source(ir_program, timed, granularity=granularity)
        suspending = suspending_functions(ir_program, timed, granularity)
        store.put(GENSRC_KIND, key, {
            "source": source, "suspending": sorted(suspending),
        })
        hit = False
    else:
        source = cached["source"]
        suspending = frozenset(cached["suspending"])
        hit = True
    code_key = content_key(source)
    code = store.get(CODE_KIND, code_key)
    if code is None:
        code = compile(source, module_name, "exec")
        store.put(CODE_KIND, code_key, code)
    generated = program_from_source(
        source, ir_program, timed=timed, granularity=granularity,
        suspending=suspending, code=code,
    )
    report._account("codegen", time.perf_counter() - start, hit)
    return generated


def generate_tlm(design, timed=True, granularity="transaction",
                 n_frames=None, report=None, quantum=None, store=None):
    """Generate an executable TLM for ``design``.

    Args:
        design: a validated :class:`~repro.tlm.platform.Design`.
        timed: annotate + emit waits (timed TLM) or not (functional TLM).
        granularity: ``"transaction"`` (paper default), ``"block"`` (sync
            every block) or ``"quantum"`` (sync every ``quantum`` blocks).
        n_frames: unused hook kept for API symmetry with workload factories.
        report: optional :class:`GenerationReport` to fill with timings.
        quantum: waits coalesced per kernel event under ``"quantum"``
            granularity (``None`` keeps the runtime default).
        store: artifact store selector — ``None`` (process default),
            ``False`` (private per-call store; nothing is reused across
            calls) or an :class:`~repro.artifacts.ArtifactStore`.

    Returns:
        a ready-to-run :class:`~repro.tlm.model.TLModel`.

    Each process's code is emitted in structured form (see
    :mod:`repro.codegen.pygen`).  ``makespan_cycles`` of the returned
    model's runs is independent of ``granularity``, ``quantum`` and cache
    warmth; only wall-clock speed changes.
    """
    design.validate()
    model = TLModel(design, timed, granularity, quantum=quantum)
    if report is None:
        report = GenerationReport(design.name, timed)
    model.report = report
    store = _resolve_store(store)
    flags = "t%d/g%s/q%s" % (timed, granularity, quantum)

    for name, decl in design.processes.items():
        ir_program, ir_fp = _frontend_stage(store, report, decl)

        if timed:
            pum = design.pes[decl.pe_name].pum
            delays_key = _delays_key(ir_fp, pum)
            report.per_process[name], _ = _annotate_stage(
                store, report, ir_program, pum, delays_key,
            )
            codegen_key = delays_key + "/" + flags
        else:
            report.per_process[name] = None
            codegen_key = ir_fp + "/untimed/" + flags

        generated = _codegen_stage(
            store, report, ir_program, codegen_key, timed, granularity,
            module_name="<tlm:%s:%s>" % (design.name, name),
        )
        model.add_generated_process(decl, generated)
    return model
