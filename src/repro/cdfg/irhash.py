"""Content fingerprints of sources and lowered IR programs.

The artifact pipeline (see :mod:`repro.artifacts`) keys each generation
stage by a digest of that stage's *complete* input:

* :func:`source_fingerprint` — the front-end stage: the raw CMini text is
  the only input of ``parse_and_analyze`` + ``build_program``.
* :func:`ir_fingerprint` — the annotation and codegen stages: a canonical
  serialisation of everything the downstream stages can observe — globals
  (types and folded initial values), function signatures, locals, local
  array initialisers, and every op of every block including its attributes.

Unlike :func:`repro.estimation.schedcache.dfg_structural_hash` (which
deliberately ignores names and literals so renamed blocks share schedule
entries), these fingerprints are *content* hashes: any observable change to
the program changes the digest.  Over-strong keys can only cost hits, never
correctness — and per-block structural sharing still happens underneath in
the schedule cache.

Both digests are stable across processes and Python runs (no ``repr`` of
object identities, no hash randomisation — only sorted names, opcode
strings and literal values enter the digest).
"""

from __future__ import annotations

import functools
import hashlib

#: Bump when the IR serialisation below (or IR semantics) changes shape.
IR_HASH_VERSION = 1

#: Sources whose digests :func:`source_fingerprint` remembers.  A sweep
#: asks for a handful of distinct sources thousands of times; a served
#: ``edit`` brings a new one per request, so the memo stays small (it
#: holds the source text itself).
SOURCE_MEMO_ENTRIES = 16


@functools.lru_cache(maxsize=SOURCE_MEMO_ENTRIES)
def source_fingerprint(source):
    """Stable digest of one process's CMini source text (memoised on the
    text for the last :data:`SOURCE_MEMO_ENTRIES` sources)."""
    digest = hashlib.blake2b(digest_size=16)
    digest.update(b"src/v%d\x00" % IR_HASH_VERSION)
    digest.update(source.encode("utf-8", "replace"))
    return digest.hexdigest()


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
    """Canonical content digest of a lowered :class:`IRProgram`."""
    parts = ["ir/v%d" % IR_HASH_VERSION]
    for name in sorted(ir_program.globals):
        ctype, init = ir_program.globals[name]
        parts.append("global %s %s %s"
                     % (name, _fmt_value(ctype), _fmt_value(init)))
    for name in sorted(ir_program.functions):
        _emit_function(parts, ir_program.function(name))
    digest = hashlib.blake2b(
        "\n".join(parts).encode("utf-8", "replace"), digest_size=16
    )
    return digest.hexdigest()
