"""Parity tests for the performance layer.

Three invariants the perf work must not bend:

* the vectorized/batched stats kernel matches a straightforward per-cell
  reference implementation (the pre-vectorization algorithm) on a
  property-style sample of generated corpora;
* a cached :class:`~repro.benchmark.context.BenchmarkContext` produces
  artifacts equal to a cold one, and the cache round-trips through disk;
* ``repro-bench`` experiment output with ``--jobs N`` is identical to the
  serial runner (modulo the measured seconds in the section headers).
"""

from __future__ import annotations

import contextlib
import io
import math
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchmark.context import BenchmarkContext
from repro.benchmark.runner import main
from repro.cache import ArtifactCache, artifact_key
from repro.core import stats
from repro.core.stats import (
    STAT_NAMES,
    STOPWORDS,
    DescriptiveStats,
    StatsScanCache,
    _delimiter_count,
    _finite,
    _scan_distinct,
    _scan_value,
    compute_stats,
    compute_stats_batch,
)
from repro.datagen.corpus import generate_corpus
from repro.tabular.column import Column
from repro.tabular.csv_io import CSVReadError, load_csv_table

MANGLED_DIR = Path(__file__).parent / "data" / "mangled"
from repro.tabular.dtypes import (
    looks_like_datetime,
    looks_like_email,
    looks_like_list,
    looks_like_url,
    try_parse_float,
)


def _moments(counts: list[float]) -> tuple[float, float]:
    if not counts:
        return 0.0, 0.0
    arr = np.asarray(counts, dtype=float)
    return float(arr.mean()), float(arr.std())


def _exact_mean_std(values: list[float]) -> tuple[float, float]:
    """Correctly rounded population mean and std, from exact rationals."""
    exact = [Fraction(v) for v in values]
    mean = sum(exact) / len(exact)
    variance = sum(f * f for f in exact) / len(exact) - mean * mean
    try:
        variance_float = float(variance)
    except OverflowError:
        variance_float = math.inf
    return float(mean), math.sqrt(variance_float)


def _word_count(text: str) -> int:
    return len(text.split())


def _stopword_count(text: str) -> int:
    return sum(1 for token in text.lower().split() if token in STOPWORDS)


def _whitespace_count(text: str) -> int:
    return sum(1 for ch in text if ch.isspace())


def reference_compute_stats(column, samples=None):
    """The pre-vectorization per-cell algorithm, kept as the test oracle.

    The numeric mean/std are the correctly rounded exact moments (the
    contract of ``repro.core.moments.ExactMoments``), not numpy's.
    """
    present = column.non_missing()
    total = len(column)
    n_nans = column.n_missing()
    distinct = column.distinct()
    if samples is None:
        samples = distinct[:5]

    numeric = [try_parse_float(cell) for cell in present]
    numeric = [v for v in numeric if v is not None]
    if numeric:
        mean, std = _exact_mean_std(numeric)
        mean_value, std_value = _finite(mean), _finite(std)
        min_value = _finite(min(numeric))
        max_value = _finite(max(numeric))
    else:
        mean_value = std_value = min_value = max_value = 0.0

    mean_word, std_word = _moments([_word_count(c) for c in present])
    mean_stop, std_stop = _moments([_stopword_count(c) for c in present])
    mean_char, std_char = _moments([len(c) for c in present])
    mean_ws, std_ws = _moments([_whitespace_count(c) for c in present])
    mean_delim, std_delim = _moments([_delimiter_count(c) for c in present])

    vector = np.array(
        [
            float(total),
            float(n_nans),
            n_nans / total if total else 0.0,
            float(len(distinct)),
            len(distinct) / total if total else 0.0,
            mean_value,
            std_value,
            min_value,
            max_value,
            mean_word,
            std_word,
            mean_stop,
            std_stop,
            mean_char,
            std_char,
            mean_ws,
            std_ws,
            mean_delim,
            std_delim,
            len(numeric) / len(present) if present else 0.0,
            float(any(looks_like_url(s) for s in samples)),
            float(any(looks_like_email(s) for s in samples)),
            float(any(_delimiter_count(s) >= 2 for s in samples)),
            float(any(looks_like_list(s) for s in samples)),
            float(any(looks_like_datetime(s) for s in samples)),
        ]
    )
    return DescriptiveStats(vector)


def _assert_stats_close(actual, expected, label=""):
    np.testing.assert_allclose(
        actual.values, expected.values, rtol=1e-9, atol=1e-9,
        err_msg=f"stats mismatch {label}",
    )


class TestVectorizedStatsParity:
    def test_property_style_corpus_sample(self):
        # Columns drawn from every generator class across several seeds.
        for seed in (0, 7, 1234):
            corpus = generate_corpus(n_examples=120, seed=seed)
            columns = [c for table in corpus.files for c in table]
            batch = compute_stats_batch(columns)
            for column, stats in zip(columns, batch):
                _assert_stats_close(
                    stats, reference_compute_stats(column), column.name
                )

    def test_downstream_suite_tables(self):
        # Categorical-heavy tables (~0.3 distinct values per cell), batched
        # a table at a time through one shared scan cache, as the
        # downstream experiments profile them.
        from repro.datagen.downstream import make_suite

        cache = StatsScanCache()
        n_columns = 0
        for dataset in make_suite(seed=0):
            columns = list(dataset.table)
            batch = compute_stats_batch(columns, scan_cache=cache)
            for column, stats in zip(columns, batch):
                np.testing.assert_allclose(
                    stats.values, reference_compute_stats(column).values,
                    rtol=0, atol=1e-9, err_msg=column.name,
                )
            n_columns += len(columns)
        assert n_columns > 100

    def test_handcrafted_edge_cases(self):
        columns = [
            Column("empty", []),
            Column("all_missing", [None, None]),
            Column("constant_huge", ["880000000000000000.0"] * 9),
            Column("mixed", ["1.5", "x,y;z", None, "  ", "a b the c", "-2e3"]),
            Column("unicode", ["véhicule", "straße", "１２３", "٣٤", "x　y"]),
            Column("numbers", ["1.", ".5e2", "5e", "e12", "+1", "1_000",
                               "inf", "nan", "0x1A", "1-2", "1.2.3"]),
            Column("urls", ["http://a.b/c", "x@y.com", "[1, 2]",
                            "2020-01-02", "a,b,c,d"]),
        ]
        batch = compute_stats_batch(columns)
        for column, stats in zip(columns, batch):
            _assert_stats_close(
                stats, reference_compute_stats(column), column.name
            )

    def test_single_equals_batch(self):
        corpus = generate_corpus(n_examples=60, seed=3)
        columns = [c for table in corpus.files for c in table]
        batch = compute_stats_batch(columns)
        for column, stats in zip(columns, batch):
            assert (compute_stats(column).values == stats.values).all()

    def test_fuzz_corpus_batch_matches_reference(self):
        """The batched kernel equals the per-cell oracle on every column
        the mangled-CSV fuzz corpus can produce (NULs, mixed encodings,
        ragged rows, exotic unicode — the inputs vectorization tends to
        mishandle)."""
        columns = []
        for path in sorted(MANGLED_DIR.glob("*.csv")):
            try:
                table = load_csv_table(path)
            except CSVReadError:
                continue  # contentless/undecodable files yield no columns
            columns.extend(list(table))
        assert len(columns) >= 10  # the corpus must actually exercise us
        batch = compute_stats_batch(columns)
        assert len(batch) == len(columns)
        for column, stats in zip(columns, batch):
            _assert_stats_close(
                stats, reference_compute_stats(column), column.name
            )
            assert (compute_stats(column).values == stats.values).all()

    def test_scan_cache_across_batches_is_equivalent(self):
        corpus = generate_corpus(n_examples=100, seed=5)
        columns = [c for table in corpus.files for c in table]
        whole = compute_stats_batch(columns)
        cache = StatsScanCache()
        chunked = []
        for table in corpus.files:
            chunked.extend(compute_stats_batch(list(table), scan_cache=cache))
        for a, b in zip(whole, chunked):
            assert (a.values == b.values).all()

    def test_capped_scan_cache_trims_but_changes_nothing(self):
        corpus = generate_corpus(n_examples=100, seed=5)
        roomy, capped = StatsScanCache(), StatsScanCache(max_values=300)
        batch_values = []
        for table in corpus.files:
            columns = list(table)
            want = compute_stats_batch(columns, scan_cache=roomy)
            got = compute_stats_batch(columns, scan_cache=capped)
            for a, b in zip(want, got):
                assert (a.values == b.values).all()
            batch_values.append(
                len({c for col in columns for c in col.cells if c is not None})
            )
            # Capacity is clamped: cap + the largest batch at most.
            assert capped.capacity <= 300 + max(batch_values)
            assert len(capped.values) <= 300
        assert len(roomy.values) > 300  # the cap really was exceeded

    def test_trim_keeps_exactly_the_values_that_hit(self):
        cache = StatsScanCache(max_values=4)

        def run(*cells):
            return compute_stats_batch(
                [Column("c", list(cells))], scan_cache=cache
            )

        run("a", "b", "c")
        run("a", "1 x")  # "a" hits; 4 values, still within the cap
        assert cache.values == ["a", "b", "c", "1 x"]
        rows = {
            value: cache.counts[:, i].copy()
            for i, value in enumerate(cache.values)
        }
        run("c", "d")  # "c" hits; 5 values > 4: keep the hits "a", "c"
        assert cache.values == ["a", "c"]
        assert dict(cache.value_index) == {"a": 0, "c": 1}
        for i, value in enumerate(cache.values):
            np.testing.assert_array_equal(cache.counts[:, i], rows[value])
        assert set(cache.probe_cache) <= {"a", "c"}
        # Hits reset at each trim: only "c" hits before the next overflow.
        run("c", "e", "f", "g")
        assert cache.values == ["c"]


#: Scan inputs where slicing could go wrong: stop words on either side of
#: a boundary, empty and whitespace-only values, codepoints above U+3000
#: (the scalar fallback; fullwidth digits even parse), and a value longer
#: than small slice budgets.
EDGE_VALUES = [
    "the", "and of", "x the", "the y", "", "   ", "\t", " a ", "1.5", " 42 ",
    "-2e3", "a,b;c|d:e", "日本 the", "\u3000the\u3000", "x\u3001y",
    "\U0001f600 of", "ｘ　ｙ", "to be or not", "1,000", "nan", "ïs it",
    "w" * 50, "of", "it is", "e12", "an  an", "\u2028the\u2029", "yes no",
    "ab" * 13, "１２３", "４.５", "\U0001d7d9", "٣٤",
]

value_strategy = st.one_of(
    st.sampled_from(EDGE_VALUES),
    st.text(
        alphabet=st.sampled_from(list("theandofitxy19.,;|:- \t\u3000\u3001日")),
        max_size=12,
    ),
    st.text(max_size=6),
)


def _scan(values):
    counts = np.full((5, len(values)), -1.0)
    parsed = np.full(len(values), -1.0)
    _scan_distinct(values, counts, parsed)
    return counts, parsed


def _bits(*arrays):
    return [array.tobytes() for array in arrays]


def _reference_shape_moments(column):
    """num_distinct and the 10 shape-count mean/std values of one column,
    from the scalar scan and exact Python integer sums."""
    present = column.non_missing()
    n = len(present)
    out = [float(len(set(present)))]
    rows = [_scan_value(value)[:5] for value in present]
    for j in range(5):
        if not n:
            out += [0.0, 0.0]
            continue
        total = sum(int(row[j]) for row in rows)
        total_sq = sum(int(row[j]) ** 2 for row in rows)
        mean = float(total) / n
        out += [mean, math.sqrt(max(float(total_sq) / n - mean * mean, 0.0))]
    return out


SHAPE_INDICES = [3] + list(range(9, 19))


class TestBoundedScan:
    """The sliced scan kernel and the tallied column moments change no
    result, and keep the batch's memory proportional to its values."""

    @pytest.mark.parametrize("budget", [1, 2, 3, 5, 8, 13, 40, 200])
    def test_sliced_scan_equals_one_slice(self, budget, monkeypatch):
        values = EDGE_VALUES + EDGE_VALUES[::-1]
        whole = _scan(values)
        sizes = []
        kernel = stats._scan_slice

        def spy(part, *args):
            sizes.append(len(part))
            return kernel(part, *args)

        monkeypatch.setattr(stats, "_scan_slice", spy)
        monkeypatch.setattr(stats, "SCAN_SLICE_CHARS", budget)
        assert _bits(*_scan(values)) == _bits(*whole)
        assert sum(sizes) == len(values)
        if budget <= 2:
            assert max(sizes) == 1  # every value is its own slice
        if budget == 8:
            assert 2 in sizes  # "x the"+"the y" and other pairs
        if budget >= 40:
            assert max(sizes) > 2  # many values per slice
        if budget == 40:
            assert 1 in sizes  # "w" * 50 exceeds the budget: its own slice

    def test_long_whitespace_before_the_first_token(self):
        values = ["    ", "     ", "the"]  # 9 spaces precede "the"
        counts, _ = _scan(values)
        reference = [_scan([value])[0][:, 0] for value in values]
        assert counts.T.tolist() == [col.tolist() for col in reference]

    @given(
        values=st.lists(value_strategy, max_size=40),
        budget=st.integers(min_value=1, max_value=60),
    )
    @settings(max_examples=150, deadline=None)
    def test_sliced_scan_equals_one_slice_on_random_values(
        self, values, budget
    ):
        whole = _scan(values)
        with patch.object(stats, "SCAN_SLICE_CHARS", budget):
            assert _bits(*_scan(values)) == _bits(*whole)

    @given(
        columns=st.lists(
            st.lists(
                st.one_of(st.none(), st.sampled_from(["", "NA", "null"]),
                          value_strategy),
                max_size=25,
            ),
            min_size=1,
            max_size=6,
        ),
        budget=st.sampled_from([3, 1 << 18]),
    )
    @settings(max_examples=120, deadline=None)
    def test_tallied_moments_equal_per_column_reference(self, columns, budget):
        columns = [Column(f"c{i}", cells) for i, cells in enumerate(columns)]
        with patch.object(stats, "SCAN_SLICE_CHARS", budget):
            batch = compute_stats_batch(columns)
        for column, result in zip(columns, batch):
            got = result.values[SHAPE_INDICES].tolist()
            assert got == _reference_shape_moments(column), column.cells

    def test_traced_peak_scales_with_values_not_characters(self):
        n = 200_000
        column = Column(
            "c", [f"v{i:06d} the quick, brown fox" for i in range(n)]
        )
        chars = sum(map(len, column.cells))  # 5.6M
        compute_stats_batch([Column("w", ["warm the LUTs up"])])
        tracemalloc.start()
        try:
            compute_stats_batch([column])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Per distinct value: its interner entry and int code (~100 B),
        # its scan row (6 floats, 48 B) and a few machine words per cell
        # for the codes and tally keys (~80 B); 256 B
        # leaves headroom.  Plus one scan slice, whose arrays take ~56 B
        # per character (64 B allowed).  This measures 45 MB against the
        # 68 MB bound; a scan over all characters at once adds
        # ~56 B x 5.6M = ~314 MB and fails it.
        bound = n * 256 + 64 * stats.SCAN_SLICE_CHARS
        assert chars > 10 * stats.SCAN_SLICE_CHARS
        assert peak < bound, f"traced peak {peak / 1e6:.1f} MB"


class TestArtifactCacheParity:
    def test_cached_context_equals_cold(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        cold = BenchmarkContext(n_examples=120, seed=2)
        first = BenchmarkContext(n_examples=120, seed=2, cache=cache)
        warm = BenchmarkContext(n_examples=120, seed=2, cache=cache)

        # first populates the cache, warm reads it back from disk
        for context in (first, warm):
            assert context.corpus.n_examples == cold.corpus.n_examples
            np.testing.assert_array_equal(
                context.dataset.stats_matrix(), cold.dataset.stats_matrix()
            )
            assert context.dataset.names == cold.dataset.names
            assert context.dataset.labels == cold.dataset.labels
            assert context.train.names == cold.train.names
            assert context.test.names == cold.test.names
        assert (tmp_path / "cache" / "corpus").exists()

    def test_cached_model_predictions_equal(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        cold = BenchmarkContext(n_examples=120, seed=2, rf_estimators=5)
        cached = BenchmarkContext(
            n_examples=120, seed=2, rf_estimators=5, cache=cache
        )
        cached.our_rf  # populate
        warm = BenchmarkContext(
            n_examples=120, seed=2, rf_estimators=5, cache=cache
        )
        profiles = cold.test.profiles
        assert (
            warm.our_rf.predict(profiles)
            == cold.our_rf.predict(profiles)
            == cached.our_rf.predict(profiles)
        )

    def test_cached_downstream_score_equals_cold(self, tmp_path):
        from repro.cache import set_active_cache
        from repro.datagen.downstream import SPEC_BY_NAME, make_dataset
        from repro.downstream.harness import evaluate_assignment
        from repro.downstream.suite import truth_assignments

        dataset = make_dataset(SPEC_BY_NAME["Hayes"], seed=4)
        assignment = truth_assignments(dataset)
        cold = evaluate_assignment(dataset, assignment, "linear", seed=0)
        cache = ArtifactCache(tmp_path / "cache")
        set_active_cache(cache)
        try:
            first = evaluate_assignment(dataset, assignment, "linear", seed=0)
            warm = evaluate_assignment(dataset, assignment, "linear", seed=0)
        finally:
            set_active_cache(None)
        assert cold == first == warm
        assert (tmp_path / "cache" / "score").exists()

    def test_key_changes_with_params(self):
        base = artifact_key("corpus", {"n_examples": 100, "seed": 0})
        assert base == artifact_key("corpus", {"seed": 0, "n_examples": 100})
        assert base != artifact_key("corpus", {"n_examples": 100, "seed": 1})
        assert base != artifact_key("split", {"n_examples": 100, "seed": 0})

    def test_corrupt_entry_degrades_to_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = artifact_key("corpus", {"n_examples": 1})
        cache.put("corpus", key, {"payload": 1})
        cache.path("corpus", key).write_bytes(b"garbage")
        assert cache.get("corpus", key) is None
        cache.put("corpus", key, {"payload": 2})
        assert cache.get("corpus", key) == {"payload": 2}


def _run_cli(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert main(argv) == 0
    # mask the measured elapsed seconds in "######## name (12.3s) ########"
    return re.sub(r"\(\d+\.\d+s\)", "(Xs)", buffer.getvalue())


@pytest.mark.slow
class TestSerialVsParallel:
    def test_jobs_output_identical(self, tmp_path):
        base = ["--scale", "300", "--seed", "1",
                "--cache-dir", str(tmp_path / "cache")]
        serial = _run_cli(["table18"] + base)
        # single-experiment runs take the serial path even with --jobs
        parallel = _run_cli(["table18"] + base + ["--jobs", "2"])
        assert serial == parallel

    def test_parallel_engine_matches_run_experiment(self, tmp_path):
        from repro.benchmark.parallel import run_parallel
        from repro.benchmark.runner import run_experiment

        names = ["table18", "table14", "table17"]
        cache = ArtifactCache(tmp_path / "cache")
        context = BenchmarkContext(n_examples=300, seed=1, cache=cache)
        records = list(run_parallel(names, context, jobs=2))
        assert [r["name"] for r in records] == names
        fresh = BenchmarkContext(n_examples=300, seed=1)
        for record in records:
            assert record["output"] == run_experiment(record["name"], fresh)
