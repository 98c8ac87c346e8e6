"""Single-pass LRU evaluation of a recorded line stream for many geometries.

Mattson's inclusion property for true-LRU caches says an access hits a
``k``-way set iff fewer than ``k`` distinct conflicting lines were touched
since the previous access to the same line (its *stack distance*).  One pass
over a trace therefore yields exact hit/miss counts for every requested
set-associative geometry at once — no per-configuration re-simulation.

Two engines compute the same exact counts:

* ``stack`` — the general single-pass engine: per-set reuse stacks keyed by
  the largest requested set count (every geometry whose set count divides it
  indexes the same stacks, since its sets are unions of the fine sets);
  geometries outside that nested family are replayed with a dict-based LRU
  (still exact, one extra pass each).
* ``vector`` — a NumPy formulation for associativities 1 and 2 (every
  geometry the cycle model's caches use): an access hits a 2-way set iff no
  line *change* occurs in its set's access subsequence strictly after the
  first intervening access since the previous occurrence, which reduces to
  a stable grouping sort plus a prefix sum.  Used automatically when every
  geometry has associativity <= 2; results are asserted bit-identical to
  ``stack`` in tests.

Results are provably bit-identical to replaying the trace through
:class:`repro.cycle.caches.Cache` — the property tests exercise exactly
that, including the size-0 :class:`~repro.cycle.caches.NullCache` edge.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from ..cycle.caches import DEFAULT_ASSOC, DEFAULT_LINE_WORDS, CacheError
from ..isa.program import BYTES_PER_WORD
from .stream import TraceError


class CacheGeometry:
    """One set-associative geometry to evaluate a trace against.

    Validation matches :class:`repro.cycle.caches.Cache` (raising the same
    :class:`~repro.cycle.caches.CacheError`), and size 0 denotes the
    :class:`~repro.cycle.caches.NullCache` degenerate case where every
    access misses.
    """

    __slots__ = ("size_bytes", "line_words", "assoc", "n_sets")

    def __init__(self, size_bytes, line_words=DEFAULT_LINE_WORDS,
                 assoc=DEFAULT_ASSOC):
        if line_words <= 0:
            raise CacheError(
                "line size must be positive (got %d words)" % line_words
            )
        if assoc <= 0:
            raise CacheError("associativity must be positive (got %d)" % assoc)
        if size_bytes < 0:
            raise CacheError("cache size cannot be negative (got %d)"
                             % size_bytes)
        self.size_bytes = size_bytes
        self.line_words = line_words
        self.assoc = assoc
        if size_bytes == 0:
            self.n_sets = 0
            return
        line_bytes = line_words * BYTES_PER_WORD
        if size_bytes % (line_bytes * assoc) != 0:
            raise CacheError(
                "size %d is not a multiple of line*assoc (%d)"
                % (size_bytes, line_bytes * assoc)
            )
        self.n_sets = size_bytes // (line_bytes * assoc)

    @property
    def is_null(self):
        return self.size_bytes == 0

    def __eq__(self, other):
        if not isinstance(other, CacheGeometry):
            return NotImplemented
        return (self.size_bytes, self.line_words, self.assoc) == (
            other.size_bytes, other.line_words, other.assoc)

    def __hash__(self):
        return hash((self.size_bytes, self.line_words, self.assoc))

    def __repr__(self):
        return "CacheGeometry(%dB, line=%dw, %d-way)" % (
            self.size_bytes, self.line_words, self.assoc,
        )


def evaluate_stream(stream, geometries, engine=None):
    """Exact LRU hit/miss counts of ``stream`` for every geometry.

    Args:
        stream: a :class:`~repro.trace.stream.LineStream`.
        geometries: iterable of :class:`CacheGeometry`.
        engine: ``None`` (auto), ``"vector"`` or ``"stack"``.

    Returns:
        ``[(hits, misses), ...]`` aligned with ``geometries`` — bit-identical
        to replaying the trace through ``cycle.caches.make_cache`` instances.

    Raises:
        TraceError: a non-null geometry wants a line size different from
            the one the stream was recorded at (the trace cannot answer it;
            callers fall back to direct simulation).
    """
    geometries = list(geometries)
    for geom in geometries:
        if not geom.is_null and geom.line_words != stream.line_words:
            raise TraceError(
                "trace was recorded at %d-word lines; geometry %r needs %d"
                % (stream.line_words, geom, geom.line_words)
            )
    results = [None] * len(geometries)
    live = []
    for index, geom in enumerate(geometries):
        if geom.is_null:
            results[index] = (0, stream.accesses)
        else:
            live.append(index)
    if live:
        shapes = [(geometries[i].n_sets, geometries[i].assoc) for i in live]
        if engine is None:
            engine = (
                "vector" if all(a <= 2 for _, a in shapes) else "stack"
            )
        if engine == "vector":
            if any(a > 2 for _, a in shapes):
                raise TraceError("vector engine only handles "
                                 "associativity <= 2")
            counts = _evaluate_vector(stream, shapes)
        elif engine == "stack":
            counts = _evaluate_stacks(stream, shapes)
        else:
            raise ValueError("unknown engine %r" % engine)
        for index, pair in zip(live, counts):
            results[index] = pair
    return results


# -- the general single-pass engine ------------------------------------------


def _evaluate_stacks(stream, shapes):
    """Per-set reuse stacks keyed by the largest nested set count.

    For every geometry whose set count divides ``n_max``, a set is a union
    of "fine" sets (``s ≡ set (mod n_sets)``), so one family of per-fine-set
    stacks answers them all in a single pass: the stack distance is the
    number of distinct lines in those fine stacks touched since the line's
    previous access, counted with early exit at the geometry's
    associativity.  Set counts outside the nested family are replayed
    exactly with a dict-based LRU.
    """
    lines = stream.lines()
    counts = stream.counts
    n_geoms = len(shapes)
    n_max = max(n_sets for n_sets, _ in shapes)
    nested = [i for i, (n_sets, _) in enumerate(shapes)
              if n_max % n_sets == 0]
    results = [None] * n_geoms
    for index, shape in enumerate(shapes):
        if index not in nested:
            results[index] = _replay_runs(lines, counts, *shape)
    if not nested:
        return results

    groups = []
    for index in nested:
        n_sets, assoc = shapes[index]
        members = [
            tuple(range(coarse, n_max, n_sets)) for coarse in range(n_sets)
        ]
        groups.append((n_sets, assoc, members))
    hits = [0] * len(nested)
    misses = [0] * len(nested)
    stacks = [[] for _ in range(n_max)]  # negated timestamps, MRU first
    last = {}
    t = 0
    for line, count in zip(lines, counts):
        t += 1
        old = last.get(line)
        if old is None:
            for gi in range(len(groups)):
                misses[gi] += 1
            stacks[line % n_max].insert(0, -t)
        else:
            key = -old
            for gi, (n_sets, assoc, members) in enumerate(groups):
                distance = 0
                for fine in members[line % n_sets]:
                    for stamp in stacks[fine]:
                        if stamp >= key:
                            break
                        distance += 1
                        if distance == assoc:
                            break
                    if distance == assoc:
                        break
                if distance < assoc:
                    hits[gi] += 1
                else:
                    misses[gi] += 1
            stack = stacks[line % n_max]
            del stack[bisect_left(stack, key)]
            stack.insert(0, -t)
        last[line] = t
        extra = count - 1
        if extra:
            # repeats within a run re-touch the MRU line: hits everywhere
            for gi in range(len(groups)):
                hits[gi] += extra
    for gi, index in enumerate(nested):
        results[index] = (hits[gi], misses[gi])
    return results


def _replay_runs(lines, counts, n_sets, assoc):
    """Exact dict-based LRU replay of a run-encoded stream (one geometry)."""
    sets = [{} for _ in range(n_sets)]
    hits = 0
    misses = 0
    for line, count in zip(lines, counts):
        ways = sets[line % n_sets]
        if line in ways:
            hits += count
            if next(reversed(ways)) != line:
                del ways[line]
                ways[line] = True
        else:
            misses += 1
            hits += count - 1
            ways[line] = True
            if len(ways) > assoc:
                del ways[next(iter(ways))]
    return hits, misses


# -- the vectorized engine (associativity <= 2) ------------------------------


def _evaluate_vector(stream, shapes):
    """NumPy evaluation of all assoc<=2 geometries.

    Correctness argument for 2-way LRU: consider the subsequence of accesses
    to the set of line ``L`` (stable grouping by set preserves time order).
    ``L`` hits iff at most one *distinct* other line was touched there since
    ``L``'s previous occurrence ``p`` — i.e. the intervening accesses are
    all to one line, which holds iff the subsequence has no line change
    strictly after position ``p+1``.  With ``CP`` the prefix count of line
    changes in the grouped order, that is ``CP[t-1] == CP[p+1]`` (the
    ``p+1 == t`` case degenerates to a guaranteed hit, which the same
    comparison yields).  For 1-way (direct-mapped), a hit requires the
    previous same-set access to be ``L`` itself: ``t == p + 1``.
    """
    n = stream.n_runs
    total = stream.accesses
    if n == 0:
        return [(0, 0)] * len(shapes)
    deltas = np.frombuffer(stream.deltas, dtype=np.int64)
    lines = np.cumsum(deltas) - 1  # runs start relative to line -1
    repeat_hits = int(total - n)  # within-run repeats re-touch the MRU line

    # Previous occurrence of the same line (shared by all geometries: a
    # line always maps to the same set).
    order = np.argsort(lines, kind="stable")
    sorted_lines = lines[order]
    same = sorted_lines[1:] == sorted_lines[:-1]
    prev = np.full(n, -1, dtype=np.int64)
    prev[order[1:][same]] = order[:-1][same]
    has_prev = prev >= 0
    prev_safe = np.where(has_prev, prev, 0)

    out = []
    arange = np.arange(n, dtype=np.int64)
    for n_sets, assoc in shapes:
        grouped = np.argsort(lines % n_sets, kind="stable")
        inv = np.empty(n, dtype=np.int64)
        inv[grouped] = arange
        prev_pos = inv[prev_safe]
        if assoc == 1:
            hit_runs = has_prev & (inv == prev_pos + 1)
        else:
            grouped_lines = lines[grouped]
            changes = np.empty(n, dtype=np.int64)
            changes[0] = 0
            np.cumsum(grouped_lines[1:] != grouped_lines[:-1],
                      out=changes[1:])
            after_prev = prev_pos + 1
            np.minimum(after_prev, n - 1, out=after_prev)
            hit_runs = has_prev & (changes[inv - 1] == changes[after_prev])
        hits = int(np.count_nonzero(hit_runs)) + repeat_hits
        out.append((hits, total - hits))
    return out
