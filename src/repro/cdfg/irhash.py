"""Content fingerprints of sources and lowered IR programs.

The artifact pipeline (see :mod:`repro.artifacts`) keys each generation
stage by a digest of that stage's *complete* input:

* :func:`source_fingerprint` — the front-end stage: the raw CMini text is
  the only input of ``parse_and_analyze`` + ``build_program``.
* :func:`code_fingerprint` — the front-end's code-level entry: the code
  text :func:`repro.cfrontend.datasplit.split_data` leaves once the
  constant data lists are cut out.
* :func:`ir_fingerprint` — the annotation and codegen stages: a canonical
  serialisation of everything the downstream stages can observe — global
  names and types, the initial values of scalar globals (the code
  generator folds the ones no code stores into literals), function
  signatures, locals, local array initialisers, and every op of every
  block including its attributes.  Global *array* values stay out: no
  block delay and no generated line reads them (generated code reads
  ``glob[...]``, which :func:`~repro.cdfg.ir.global_storage` fills per
  instance), so sources that differ only in their data lists share one
  annotation and one module.

Unlike :func:`repro.estimation.schedcache.dfg_structural_hash` (which
deliberately ignores names and literals so renamed blocks share schedule
entries), these fingerprints are *content* hashes: any change to what
their stage observes changes the digest.  Over-strong keys can only cost
hits, never correctness — and per-block structural sharing still happens
underneath in the schedule cache.

All digests are stable across processes and Python runs (no ``repr`` of
object identities, no hash randomisation — only sorted names, opcode
strings and literal values enter the digest).  Texts are encoded with
``surrogatepass``, so two different texts never hash the same bytes (a
lone surrogate no longer becomes ``?``).
"""

from __future__ import annotations

import functools
import hashlib

from ..cfrontend.ctypes_ import is_array

#: Bump when the IR serialisation below (or IR semantics) changes shape.
#: Version 2 dropped global initial values from :func:`ir_fingerprint`;
#: version 3 brought scalar globals' values back.
IR_HASH_VERSION = 3

#: Sources whose digests :func:`source_fingerprint` remembers.  A sweep
#: asks for a handful of distinct sources thousands of times; a served
#: ``edit`` brings a new one per request, so the memo stays small (it
#: holds the source text itself).
SOURCE_MEMO_ENTRIES = 16


def _text_digest(tag, text):
    digest = hashlib.blake2b(digest_size=16)
    digest.update(b"%s/v%d\x00" % (tag, IR_HASH_VERSION))
    digest.update(text.encode("utf-8", "surrogatepass"))
    return digest.hexdigest()


@functools.lru_cache(maxsize=SOURCE_MEMO_ENTRIES)
def source_fingerprint(source):
    """Stable digest of one process's CMini source text (memoised on the
    text for the last :data:`SOURCE_MEMO_ENTRIES` sources)."""
    return _text_digest(b"src", source)


def code_fingerprint(code_text):
    """Stable digest of a source's code text (its data lists cut out)."""
    return _text_digest(b"code", code_text)


def _fmt_value(value):
    """Canonical text for a literal / attribute value."""
    if isinstance(value, float):
        # repr() round-trips floats exactly and is stable across platforms.
        return "f:" + repr(value)
    if isinstance(value, bool):
        return "b:%d" % value
    if isinstance(value, int):
        return "i:%d" % value
    if isinstance(value, str):
        return "s:" + value
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_fmt_value(v) for v in value) + "]"
    if value is None:
        return "none"
    # CTypes and anything else with a stable repr ("int", "float[4]", ...).
    return "r:" + repr(value)


def _emit_op(parts, op):
    parts.append(op.opcode)
    parts.append("d%s" % ("-" if op.dst is None else op.dst))
    parts.append("a" + ",".join(map(str, op.args)))
    for name in sorted(op.attrs):
        parts.append("%s=%s" % (name, _fmt_value(op.attrs[name])))


def _emit_function(parts, func):
    parts.append("func " + func.name)
    parts.append("ret " + _fmt_value(func.ret_type))
    for name, ctype in func.params:
        parts.append("param %s %s" % (name, _fmt_value(ctype)))
    for name in sorted(func.locals):
        parts.append("local %s %s" % (name, _fmt_value(func.locals[name])))
    for name in sorted(func.local_array_inits):
        parts.append("init %s %s"
                     % (name, _fmt_value(func.local_array_inits[name])))
    for block in func.blocks:
        parts.append("bb %d" % block.label)
        for op in block.ops:
            _emit_op(parts, op)


def ir_fingerprint(ir_program):
    """Canonical code digest of a lowered :class:`IRProgram`: global names
    and types and scalar globals' initial values, not array contents."""
    parts = ["ir/v%d" % IR_HASH_VERSION]
    for name in sorted(ir_program.globals):
        ctype, value = ir_program.globals[name]
        parts.append("global %s %s" % (name, _fmt_value(ctype)))
        if not is_array(ctype):
            parts.append("= " + _fmt_value(value))
    for name in sorted(ir_program.functions):
        _emit_function(parts, ir_program.function(name))
    digest = hashlib.blake2b(
        "\n".join(parts).encode("utf-8", "surrogatepass"), digest_size=16
    )
    return digest.hexdigest()
