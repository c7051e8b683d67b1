"""Tests for the experiment harness (small-scale smoke + shape checks)."""

import numpy as np
import pytest

from repro.benchmark.context import BenchmarkContext
from repro.benchmark.formatting import format_percent, format_table
from repro.types import ALL_FEATURE_TYPES, FeatureType


class TestFormatting:
    def test_format_table_alignment(self):
        out = format_table(["a", "bb"], [["x", 1.23456], ["yy", 2]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "1.235" in out
        assert "-" in lines[2]

    def test_none_renders_dash(self):
        out = format_table(["a"], [[None]])
        assert "-" in out.splitlines()[-1]

    def test_format_percent(self):
        assert format_percent(0.923) == "92.3%"


class TestContext:
    def test_lazy_corpus_and_split(self, small_context):
        assert len(small_context.dataset) == 500
        assert len(small_context.train) + len(small_context.test) == 500
        # stratified split: every class in both sides
        assert set(small_context.train.labels) == set(ALL_FEATURE_TYPES)
        assert set(small_context.test.labels) == set(ALL_FEATURE_TYPES)

    def test_models_are_cached(self, small_context):
        a = small_context.model("rf")
        b = small_context.model("rf")
        assert a is b

    def test_raw_column_lookup(self, small_context):
        profile = small_context.dataset.profiles[0]
        column = small_context.raw_column(profile)
        assert column.name == profile.name

    def test_unknown_model_raises(self, small_context):
        with pytest.raises(ValueError, match="unknown model"):
            small_context._build_model("boost", ("stats",))


class TestTable1:
    def test_shapes_and_paper_trends(self, small_context):
        from repro.benchmark.table1 import render_table1, run_table1

        result = run_table1(small_context)
        # headline trend: the RF beats every rule/syntax tool on 9-class acc
        rf = result.nine_class["rf"]
        for tool in ("tfdv", "pandas", "transmogrifai", "autogluon",
                     "sherlock", "rules"):
            assert rf > result.nine_class[tool], tool
        # tools have (near-)perfect recall but weak precision on Numeric
        for tool in ("tfdv", "pandas", "transmogrifai", "autogluon"):
            cell = result.cell(tool, FeatureType.NUMERIC)
            assert cell.recall > 0.9
            assert cell.precision < cell.recall
        # blank cells where the tool's vocabulary lacks the class
        assert result.cell("tfdv", FeatureType.CONTEXT_SPECIFIC) is None
        assert result.cell("pandas", FeatureType.CATEGORICAL) is None
        text = render_table1(result)
        assert "Numeric" in text and "9-class" in text


class TestTable2:
    def test_feature_set_sweep(self, small_context):
        from repro.benchmark.table2 import render_table2, run_table2

        result = run_table2(
            small_context,
            models=("logreg", "rf"),
            feature_sets=(("stats",), ("name",), ("stats", "name")),
        )
        for model in ("logreg", "rf", "knn"):
            assert model in result.accuracy
        # combining stats+name should not be (much) worse than stats alone;
        # at this tiny test scale allow some variance
        rf = result.accuracy["rf"]
        assert rf["X_stats, X2_name"]["test"] >= rf["X_stats"]["test"] - 0.10
        label, best = result.best_feature_set("rf")
        assert 0.5 < best <= 1.0
        assert "X" in render_table2(result, "test")


class TestTable3:
    def test_error_analysis(self, small_context):
        from repro.benchmark.table3 import render_table3, run_table3

        result = run_table3(small_context)
        assert result.test_size == len(small_context.test)
        assert 0.0 <= result.error_rate < 0.5
        for example in result.examples:
            assert example.label != example.prediction
        assert "RF Prediction" in render_table3(result)

    def test_datatype_confusion(self, small_context):
        from repro.benchmark.table3 import (
            render_datatype_confusion,
            run_datatype_confusion,
        )
        from repro.tabular.dtypes import SyntacticType

        counts = run_datatype_confusion(small_context)
        assert sum(counts.values()) == len(small_context.test)
        # Numeric predictions should come overwhelmingly from int/float columns
        numeric_total = sum(
            c for (ft, st), c in counts.items() if ft is FeatureType.NUMERIC
        )
        numeric_numeric = sum(
            c
            for (ft, st), c in counts.items()
            if ft is FeatureType.NUMERIC
            and st in (SyntacticType.INTEGER, SyntacticType.FLOAT)
        )
        assert numeric_numeric >= 0.9 * numeric_total
        assert "raw" in render_datatype_confusion(counts)


class TestTable7:
    def test_leave_file_out(self, small_context):
        from repro.benchmark.table7 import render_table7, run_table7

        result = run_table7(small_context, n_splits=3, models=("logreg",))
        cells = result.accuracy["logreg"]
        assert 0.4 < cells["test"] <= 1.0
        assert cells["train"] >= cells["test"] - 0.05
        assert "leave-datafile-out" in render_table7(result)


class TestTable12:
    def test_ablation_marginal(self, small_context):
        from repro.benchmark.table12 import render_table12, run_table12

        rows = run_table12(small_context)
        assert len(rows) == 8  # 2 models x 4 variants
        by_key = {(r.model, r.ablation): r for r in rows}
        full = by_key[("rf", "full")].nine_class_accuracy
        ablated = by_key[("rf", "minus datetime feature")].nine_class_accuracy
        assert abs(full - ablated) < 0.15  # robustness claim
        assert "ablation" in render_table12(rows)


class TestRobustness:
    def test_perturbation_stability(self, small_context):
        from repro.benchmark.robustness import render_table16, run_robustness

        result = run_robustness(
            small_context, models=("rf",), n_runs=5, max_columns=40
        )
        values = result.stability["rf"]
        assert values.shape == (40,)
        assert np.all((values >= 0) & (values <= 100))
        assert float(np.median(values)) >= 60.0
        xs, ys = result.cdf("rf")
        assert ys[-1] == pytest.approx(1.0)
        assert "percentile" in render_table16(result)


class TestTable17:
    def test_confusion_matrices(self, small_context):
        from repro.benchmark.table17 import render_table17, run_table17

        result = run_table17(small_context)
        n_test = len(small_context.test)
        for name in ("rules", "rf", "sherlock"):
            matrix = result.matrix(name)
            assert matrix.shape == (9, 9)
            assert int(matrix.sum()) == n_test
        # RF should be far more diagonal than the rules
        rf_diag = np.trace(result.matrix("rf")) / n_test
        rules_diag = np.trace(result.matrix("rules")) / n_test
        assert rf_diag > rules_diag
        assert "confusion" in render_table17(result)


class TestDataStats:
    def test_table18_shapes_and_trends(self, small_context):
        from repro.benchmark.datastats import render_table18, run_datastats

        result = run_datastats(small_context)
        sentence_chars = result.summary(FeatureType.SENTENCE, "mean_char_count")
        numeric_chars = result.summary(FeatureType.NUMERIC, "mean_char_count")
        # paper Table 18: Sentence values are much longer than Numeric values
        assert sentence_chars["avg"] > numeric_chars["avg"]
        xs, ys = result.cdf(FeatureType.NUMERIC, "pct_nans")
        assert len(xs) == len(ys) > 0
        assert "by class" in render_table18(result)


class TestRuntime:
    def test_runtime_breakdown(self, small_context):
        from repro.benchmark.runtime import render_figure7, run_runtimes

        breakdowns = run_runtimes(
            small_context, models=("logreg", "rf"), max_columns=20
        )
        assert len(breakdowns) == 2
        for b in breakdowns:
            assert b.total > 0
            assert b.total < 0.2  # the paper's "<0.2 s per column"
        assert "runtime" in render_figure7(breakdowns)


class TestLabeling:
    def test_bootstrap(self, small_context):
        from repro.benchmark.labeling import run_labeling_bootstrap

        result = run_labeling_bootstrap(small_context, seed_size=200)
        assert 0.5 < result.cv_accuracy <= 1.0
        assert sum(result.group_sizes.values()) == len(
            small_context.dataset
        ) - result.seed_size
        # plain str keys, so the printed groups read {'Numeric': ...}
        assert {type(key) for key in result.group_sizes} == {str}

    def test_crowdsourcing_noise(self, small_context):
        from repro.benchmark.labeling import run_crowdsourcing_simulation

        result = run_crowdsourcing_simulation(
            small_context, worker_accuracy=0.55, n_examples=150
        )
        assert 0.0 <= result.majority_vote_accuracy <= 1.0
        # noisy workers produce many multi-label examples (the paper's finding)
        assert result.pct_examples_with_3plus_labels > 0.2


class TestLeaderboard:
    def test_ranking(self, small_context):
        from repro.benchmark.leaderboard import build_leaderboard

        board = build_leaderboard(small_context)
        ranked = board.ranked()
        accuracies = [e.nine_class_accuracy for e in ranked]
        assert accuracies == sorted(accuracies, reverse=True)
        assert board.winner().approach in ("rf", "cnn", "logreg")
        assert "nine_class_accuracy" in board.to_json()
