"""Tests for ``repro.sketch``: exact moments, parity with the batch
kernel, merge order-independence, and bounded-state behavior.

The parity contract under test (documented in
``src/repro/sketch/column.py``): all 25 statistics are bit-identical to
``compute_stats_batch`` on the same rows, however the rows are chunked or
merged — both engines share one accumulate step and one finalize step.
"""

from __future__ import annotations

import io
import math
import struct
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import moments as moments_module
from repro.core.featurize import ProfileError, profile_table
from repro.core.stats import StatsScanCache, compute_stats_batch
from repro.obs import telemetry
from repro.sketch import (
    ColumnSketch,
    ExactMoments,
    SketchConfig,
    StreamingProfiler,
    profile_csv_stream,
)
from repro.tabular.column import Column
from repro.tabular.csv_io import iter_csv_chunks, read_csv_text

cells_strategy = st.lists(
    st.one_of(
        st.none(),
        st.integers(-10_000, 10_000).map(str),
        st.floats(-1e6, 1e6, allow_nan=False).map(lambda v: f"{v:.6g}"),
        st.text(alphabet="abc xyz;,.!?0123456789", max_size=20),
        st.sampled_from(["NA", "null", "", "true", "False", "yes"]),
    ),
    min_size=1,
    max_size=60,
)


def assert_stats_match(streamed, batch, context=""):
    """All 25 statistics are bit-identical (0.0 and -0.0 differ)."""
    got, want = streamed.values, batch.values
    for index in range(len(want)):
        assert got[index:index + 1].tobytes() == want[index:index + 1].tobytes(), (
            f"stat {index} not bit-identical{context}: "
            f"{got[index]!r} != {want[index]!r}"
        )


def batch_stats(cells):
    return compute_stats_batch([Column("x", list(cells))])[0]


class TestExactMoments:
    @given(
        values=st.lists(
            st.floats(allow_nan=False, allow_infinity=False), min_size=1,
            max_size=30,
        )
    )
    @example(values=[0.1, 0.2, 0.3, 1e-300, 1e150, -7.25, 3.0])
    # The variance (1e616) overflows float64: the std must read inf.
    @example(values=[1e308, -1e308])
    @settings(max_examples=200, deadline=None)
    def test_matches_fraction_reference(self, values):
        moments = ExactMoments()
        moments.add_many(values)
        exact = [Fraction(v) for v in values]
        mean_ref = sum(exact) / len(exact)
        var_ref = sum(f * f for f in exact) / len(exact) - mean_ref * mean_ref
        try:
            var_float = float(var_ref)
        except OverflowError:
            var_float = math.inf
        assert moments.mean_std() == (float(mean_ref), math.sqrt(var_float))
        assert moments.min == min(values)
        assert moments.max == max(values)

    def test_weighted_equals_repeated(self):
        repeated, weighted = ExactMoments(), ExactMoments()
        for value in (1.5, -2.25, 1e-10):
            for _ in range(3):
                repeated.add(value)
            weighted.add_weighted(value, 3)
        assert repeated == weighted

    def test_merge_any_partition(self):
        values = [math.pi, -1e200, 1e-200, 42.0, 0.125] * 4
        whole = ExactMoments()
        whole.add_many(values)
        for cut in (1, 3, 7, 19):
            left, right = ExactMoments(), ExactMoments()
            left.add_many(values[:cut])
            right.add_many(values[cut:])
            assert left.merge(right) == whole

    def test_rejects_non_finite(self):
        moments = ExactMoments()
        with pytest.raises(ValueError):
            moments.add(math.inf)
        with pytest.raises(ValueError):
            moments.add(math.nan)

    def test_add_many_rejects_non_finite_before_changing_state(self):
        moments = ExactMoments()
        moments.add(2.0)
        with pytest.raises(ValueError, match="nan"):
            moments.add_many([1.0, math.nan, 3.0])
        reference = ExactMoments()
        reference.add(2.0)
        assert moments == reference

    @given(
        pairs=st.lists(
            st.tuples(
                st.one_of(
                    st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from(
                        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                         1.7976931348623157e308, -1.7976931348623157e308]
                    ),
                ),
                st.integers(0, 1000),
            ),
            max_size=40,
        ),
        start=st.none() | st.floats(allow_nan=False, allow_infinity=False),
        weighted=st.booleans(),
        int_slice=st.sampled_from([1, 3, 4096]),
    )
    # A 0.0/-0.0 tie at the min or max keeps the first of the two.
    @example(pairs=[(0.0, 1), (-0.0, 2), (5.0, 1)], start=None, weighted=True,
             int_slice=4096)
    @example(pairs=[(-0.0, 1), (0.0, 2), (-5.0, 1)], start=None, weighted=True,
             int_slice=4096)
    @settings(max_examples=300, deadline=None)
    def test_add_many_equals_add_weighted_loop(
        self, pairs, start, weighted, int_slice
    ):
        values = [value for value, _ in pairs]
        weights = [weight for _, weight in pairs] if weighted else [1] * len(pairs)
        loop, batch = ExactMoments(), ExactMoments()
        if start is not None:
            loop.add(start)
            batch.add(start)
        for value, weight in zip(values, weights):
            loop.add_weighted(value, weight)
        with patch.object(moments_module, "_INT_SLICE", int_slice):
            batch.add_many(values, weights if weighted else None)
        bits = lambda x: struct.pack("<d", x)  # tells 0.0 from -0.0
        assert (batch.count, batch._sum, batch._sumsq) == (
            loop.count, loop._sum, loop._sumsq
        )
        assert bits(batch.min) == bits(loop.min)
        assert bits(batch.max) == bits(loop.max)

    def test_empty_is_zero(self):
        assert ExactMoments().mean_std() == (0.0, 0.0)

    def test_catastrophic_cancellation_is_exact(self):
        # 1e16 + 1 - 1e16: float accumulation loses the 1; big ints don't.
        moments = ExactMoments()
        moments.add_many([1e16, 1.0, -1e16])
        mean, _ = moments.mean_std()
        assert mean == float(Fraction(1, 3))


class TestSketchParity:
    @given(cells=cells_strategy)
    @settings(max_examples=60, deadline=None)
    def test_single_pass_matches_batch_kernel(self, cells):
        sketch = ColumnSketch("x")
        sketch.update(cells)
        assert_stats_match(sketch.finalize(), batch_stats(cells))

    @given(cells=cells_strategy, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_merge_is_order_independent(self, cells, data):
        # Split into chunks, sketch each with its true offset, merge in a
        # shuffled order: bit-identical to the single-pass sketch.
        n_cuts = data.draw(st.integers(0, 4))
        cuts = sorted(
            data.draw(
                st.lists(
                    st.integers(0, len(cells)),
                    min_size=n_cuts,
                    max_size=n_cuts,
                )
            )
        )
        bounds = [0, *cuts, len(cells)]
        shards = []
        for start, stop in zip(bounds, bounds[1:]):
            shard = ColumnSketch("x")
            shard.update(cells[start:stop], cell_offset=start)
            shards.append(shard)
        order = data.draw(st.permutations(range(len(shards))))
        merged = shards[order[0]]
        for position in order[1:]:
            merged.merge(shards[position])

        single = ColumnSketch("x")
        single.update(cells)
        assert merged.samples() == single.samples()
        assert merged.distinct_count == single.distinct_count
        got, want = merged.finalize().values, single.finalize().values
        assert got.tolist() == want.tolist()  # merge itself is bit-exact
        assert_stats_match(merged.finalize(), batch_stats(cells))

    def test_chunked_update_matches_head_samples(self):
        cells = [f"v{i % 7}" for i in range(40)]
        sketch = ColumnSketch("x")
        for start in range(0, len(cells), 6):
            sketch.update(cells[start : start + 6])
        assert sketch.samples() == Column("x", cells).head_distinct(5)

    def test_shared_scan_cache_changes_nothing(self):
        cells = ["1", "2", "spam", None, "2"] * 9
        cache = StatsScanCache()
        shared, private = ColumnSketch("x"), ColumnSketch("x")
        for start in range(0, len(cells), 10):
            shared.update(cells[start : start + 10], scan_cache=cache)
            private.update(cells[start : start + 10])
        assert shared.finalize().values.tolist() == private.finalize().values.tolist()


class TestBoundedState:
    def test_spill_reports_exactly_the_cap(self):
        config = SketchConfig(distinct_cap=8)
        sketch = ColumnSketch("x", config)
        sketch.update([f"v{i}" for i in range(30)])
        assert sketch.distinct_overflowed
        assert sketch.distinct_count == 8
        assert sketch.finalize()["num_distinct"] == 8.0
        with pytest.raises(ValueError, match="spilled"):
            sketch.distinct_values()

    def test_spill_is_merge_order_independent(self):
        config = SketchConfig(distinct_cap=8)
        chunks = [[f"v{i + 10 * c}" for i in range(6)] for c in range(4)]
        offsets = [0, 6, 12, 18]
        single = ColumnSketch("x", config)
        for chunk in chunks:
            single.update(chunk)
        for order in ([0, 1, 2, 3], [3, 1, 0, 2], [2, 3, 1, 0]):
            shards = []
            for index in order:
                shard = ColumnSketch("x", config)
                shard.update(chunks[index], cell_offset=offsets[index])
                shards.append(shard)
            merged = shards[0]
            for shard in shards[1:]:
                merged.merge(shard)
            assert merged.distinct_overflowed == single.distinct_overflowed
            assert merged.distinct_count == single.distinct_count == 8

    def test_below_cap_distinct_is_exact(self):
        sketch = ColumnSketch("x", SketchConfig(distinct_cap=100))
        sketch.update(["a", "b", "a", None, "NA", "c"])
        assert not sketch.distinct_overflowed
        assert sketch.distinct_count == 3
        assert sketch.distinct_values() == ["a", "b", "c"]

    def test_merge_rejects_config_mismatch(self):
        left = ColumnSketch("x", SketchConfig(distinct_cap=8))
        right = ColumnSketch("x", SketchConfig(distinct_cap=9))
        with pytest.raises(ValueError, match="different configs"):
            left.merge(right)


CSV_TEXT = "id,amount,city,note\n" + "\n".join(
    f"{i},{i * 1.25 + 0.5:.2f},{['CA', 'TX', 'NY'][i % 3]},note {i % 11}"
    for i in range(200)
)


class TestStreamingProfiler:
    def _streamed(self, text, **kwargs):
        return profile_csv_stream(
            io.BytesIO(text.encode("utf-8")), name="t", **kwargs
        )

    def _batch(self, text):
        return profile_table(read_csv_text(text, name="t"))

    def test_profiles_match_profile_table(self):
        streamed = self._streamed(CSV_TEXT, chunk_rows=32)
        batch = self._batch(CSV_TEXT)
        assert [p.name for p in streamed] == [p.name for p in batch]
        for got, want in zip(streamed, batch):
            assert got.samples == want.samples
            assert got.source_file == want.source_file == "t"
            assert got.stats.values.tolist() == want.stats.values.tolist()

    @pytest.mark.parametrize("chunk_rows", [1, 2, 3, 64])
    def test_ill_conditioned_columns_match_profile_table(self, chunk_rows):
        # x: numpy's pairwise mean is 10622.770666666658, 6 ulp below the
        # exact 10622.770666666667; both engines must report the exact
        # moments.  z: buffered, "-0" (interned from y) sorts before "0";
        # streamed, "0" arrives first; min_value must not keep the sign.
        text = "x,y,z\n353161,a,0\n995.312,-0,-0\n-322288,c,0\n"
        streamed = self._streamed(text, chunk_rows=chunk_rows)
        batch = self._batch(text)
        for got, want in zip(streamed, batch):
            assert_stats_match(got.stats, want.stats, context=f" ({got.name})")
        assert batch[0].stats["mean_value"] == float(
            (Fraction(353161) + Fraction(995.312) - 322288) / 3
        )

    def test_scan_cache_recycling_changes_nothing(self):
        telemetry.enable()
        telemetry.reset()
        try:
            tight = self._streamed(
                CSV_TEXT, chunk_rows=16, scan_cache_max_values=10
            )
            resets = telemetry.metrics.counter("sketch.scan_cache_reset").value
        finally:
            telemetry.reset()
            telemetry.disable()
        assert resets > 0  # the tiny threshold actually recycled
        roomy = self._streamed(CSV_TEXT, chunk_rows=16)
        for got, want in zip(tight, roomy):
            assert got.stats.values.tolist() == want.stats.values.tolist()

    def test_profiler_merge_matches_single(self):
        chunks = list(
            iter_csv_chunks(
                io.BytesIO(CSV_TEXT.encode("utf-8")), name="t", chunk_rows=64
            )
        )
        assert len(chunks) >= 3
        single = StreamingProfiler(source_file="t")
        for chunk in chunks:
            single.consume(chunk)
        left = StreamingProfiler(source_file="t", row_offset=0)
        left.consume(chunks[0])
        offset = chunks[0].n_rows
        right = StreamingProfiler(source_file="t", row_offset=offset)
        for chunk in chunks[1:]:
            right.consume(chunk)
        merged = left.merge(right)
        assert merged.n_rows == single.n_rows == 200
        for got, want in zip(merged.profiles(), single.profiles()):
            assert got.samples == want.samples
            assert got.stats.values.tolist() == want.stats.values.tolist()

    def test_empty_stream_raises_profile_error(self):
        with pytest.raises(ProfileError, match="no CSV chunks"):
            StreamingProfiler(source_file="t").profiles()

    def test_header_change_mid_stream_rejected(self):
        profiler = StreamingProfiler(source_file="t")
        profiler.consume(
            next(iter_csv_chunks(io.BytesIO(b"a,b\n1,2\n"), name="t"))
        )
        with pytest.raises(ProfileError, match="header changed"):
            profiler.consume(
                next(iter_csv_chunks(io.BytesIO(b"a,c\n1,2\n"), name="t"))
            )

    def test_telemetry_counters(self):
        telemetry.enable()
        telemetry.reset()
        try:
            self._streamed(CSV_TEXT, chunk_rows=50)
            sketch = ColumnSketch("x", SketchConfig(distinct_cap=2))
            sketch.update(["a", "b", "c"])
            other = ColumnSketch("x", SketchConfig(distinct_cap=2))
            sketch.merge(other)
            counter = telemetry.metrics.counter
            assert counter("sketch.chunks").value == 4
            assert counter("sketch.rows").value == 200
            assert counter("sketch.distinct_spilled").value == 1
            assert counter("sketch.merge").value == 1
            chunk_spans = [s for s in telemetry.spans if s.name == "sketch.chunk"]
            assert len(chunk_spans) == 4
        finally:
            telemetry.reset()
            telemetry.disable()
