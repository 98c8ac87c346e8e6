"""Bit-identity of the stack-distance evaluator against direct Cache replay.

This is the load-bearing guarantee of the reference-model fast path: for
any trace and any valid LRU geometry (the NullCache size-0 edge included),
:func:`repro.trace.evaluate_stream` must report exactly the hit/miss counts
a :class:`repro.cycle.caches.Cache` fed the same accesses would count.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cycle.caches import BYTES_PER_WORD, CacheError, make_cache
from repro.trace import CacheGeometry, LineStream, TraceError, evaluate_stream


def replay(stream, geom):
    """Golden reference: feed the expanded trace through the real cache."""
    cache = make_cache(geom.size_bytes, geom.line_words, geom.assoc)
    for line in stream.expand():
        cache.access(line * geom.line_words)
    return cache.hits, cache.misses


# Geometries as (n_sets, assoc) pairs; sizes derive from the line size so
# every drawn combination is valid.  Non-power-of-two set counts force the
# stack engine's non-nested replay path.
SHAPES = st.tuples(st.sampled_from([1, 2, 3, 4, 8, 16]),
                   st.sampled_from([1, 2, 4]))


@st.composite
def stream_and_geometries(draw):
    line_words = draw(st.sampled_from([1, 2, 4, 8]))
    addrs = draw(st.lists(st.integers(min_value=0, max_value=4000),
                          max_size=300))
    shapes = draw(st.lists(SHAPES, min_size=1, max_size=5))
    geometries = [
        CacheGeometry(n_sets * line_words * BYTES_PER_WORD * assoc,
                      line_words, assoc)
        for n_sets, assoc in shapes
    ]
    if draw(st.booleans()):
        geometries.append(CacheGeometry(0, line_words))
    stream = LineStream.from_word_addrs(addrs, line_words)
    return stream, geometries


class TestBitIdentity:
    @given(stream_and_geometries())
    @settings(max_examples=120, deadline=None)
    def test_stack_engine_matches_cache_replay(self, case):
        stream, geometries = case
        results = evaluate_stream(stream, geometries, engine="stack")
        for geom, got in zip(geometries, results):
            assert got == replay(stream, geom), geom

    @given(stream_and_geometries())
    @settings(max_examples=120, deadline=None)
    def test_vector_engine_matches_stack_engine(self, case):
        stream, geometries = case
        geometries = [g for g in geometries if g.assoc <= 2]
        if not geometries:
            return
        assert (evaluate_stream(stream, geometries, engine="vector")
                == evaluate_stream(stream, geometries, engine="stack"))

    def test_null_cache_counts_every_access_as_miss(self):
        stream = LineStream.from_lines([1, 1, 2, 3, 3, 3], line_words=8)
        assert evaluate_stream(stream, [CacheGeometry(0)]) == [(0, 6)]

    def test_empty_stream(self):
        stream = LineStream.from_lines([], line_words=8)
        for engine in ("stack", "vector"):
            assert evaluate_stream(
                stream, [CacheGeometry(2048), CacheGeometry(0)], engine=engine,
            ) == [(0, 0), (0, 0)]

    def test_results_align_with_input_order(self):
        stream = LineStream.from_lines(list(range(64)) * 2, line_words=8)
        geoms = [CacheGeometry(0), CacheGeometry(65536), CacheGeometry(1024)]
        null, big, small = evaluate_stream(stream, geoms)
        assert null == (0, 128)
        assert big == (64, 64)  # everything fits: second pass all hits
        assert small[0] < 64


class TestErrors:
    def test_line_size_mismatch_raises(self):
        stream = LineStream.from_lines([1, 2, 3], line_words=8)
        with pytest.raises(TraceError):
            evaluate_stream(stream, [CacheGeometry(2048, line_words=4)])

    def test_null_geometry_ignores_line_size(self):
        stream = LineStream.from_lines([1, 2, 3], line_words=8)
        assert evaluate_stream(
            stream, [CacheGeometry(0, line_words=4)]
        ) == [(0, 3)]

    def test_vector_engine_rejects_high_associativity(self):
        stream = LineStream.from_lines([1, 2, 3], line_words=8)
        geom = CacheGeometry(2048, assoc=4)
        with pytest.raises(TraceError):
            evaluate_stream(stream, [geom], engine="vector")
        # the auto engine handles it via the stack path
        assert evaluate_stream(stream, [geom]) == [replay(stream, geom)]

    def test_unknown_engine_rejected(self):
        stream = LineStream.from_lines([1], line_words=8)
        with pytest.raises(ValueError):
            evaluate_stream(stream, [CacheGeometry(2048)], engine="turbo")

    def test_geometry_validation_matches_cache(self):
        with pytest.raises(CacheError):
            CacheGeometry(1000)  # not a multiple of line*assoc
        with pytest.raises(CacheError):
            CacheGeometry(2048, line_words=0)
        with pytest.raises(CacheError):
            CacheGeometry(2048, assoc=0)
        with pytest.raises(CacheError):
            CacheGeometry(-1)
        assert CacheGeometry(0).is_null
        assert CacheGeometry(2048).n_sets == 32
