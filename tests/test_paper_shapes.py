"""The paper's shapes: each experiment's ``check`` and how ``repro-bench``
reports a broken one.

Every check gets a hand-built result that holds its shapes, then the same
result with one field edited, and must name the shape that broke.  The
registry test runs every experiment wrapper over stubbed experiment
modules, so it sees which experiments carry a check without a run at
``SHAPE_CHECK_SCALE``.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
from collections import Counter

import numpy as np
import pytest

from repro.active import ActiveLearningCurve
from repro.benchmark import runner
from repro.benchmark.context import SHAPE_CHECK_SCALE, BenchmarkContext
from repro.benchmark.datastats import TABLE18_STATS, DataStatsResult
from repro.benchmark.downstream_exp import merge_downstream
from repro.benchmark.importance import BlockImportance
from repro.benchmark.labeling import BootstrapResult, CrowdsourcingResult
from repro.benchmark.robustness import RobustnessResult
from repro.benchmark.runtime import RuntimeBreakdown
from repro.benchmark.sharding import get_shardable
from repro.benchmark.table1 import Table1Result
from repro.benchmark.table2 import Table2Result
from repro.benchmark.table3 import Table3Result
from repro.benchmark.table7 import Table7Result
from repro.benchmark.table11 import ExtendedType, Table11Row
from repro.benchmark.table12 import ABLATIONS, Table12Row
from repro.benchmark.table14 import Table14Row
from repro.benchmark.table15 import Table15Row
from repro.benchmark.table17 import Table17Result
from repro.benchmark.weak_exp import WeakSupervisionResult
from repro.core.feature_sets import feature_set_label
from repro.downstream.harness import DownstreamScore
from repro.obs import telemetry
from repro.types import ALL_FEATURE_TYPES, FeatureType
from repro.weak import AmplificationResult

#: The experiments whose shapes the paper reports, one module each.
CHECKED = {
    "table1": "table1",
    "table2": "table2",
    "table3": "table3",
    "downstream": "downstream_exp",
    "table7": "table7",
    "table11": "table11",
    "table12": "table12",
    "table14": "table14",
    "table15": "table15",
    "figure9": "robustness",
    "table17": "table17",
    "table18": "datastats",
    "figure7": "runtime",
    "labeling": "labeling",
    "weak": "weak_exp",
    "active": "active_exp",
    "importance": "importance",
}
UNCHECKED_MODULES = ("tuning_exp", "leaderboard")


def check_of(experiment: str):
    return importlib.import_module(
        f"repro.benchmark.{CHECKED[experiment]}"
    ).check


# ---------------------------------------------------------------------------
# Results that hold every shape
# ---------------------------------------------------------------------------

_TOOLS = ("tfdv", "pandas", "transmogrifai", "autogluon", "sherlock", "rules")


def _table1():
    return Table1Result(
        metrics={}, nine_class={**{t: 0.6 for t in _TOOLS}, "rf": 0.95}
    )


def _table2():
    cells = {"train": 1.0, "validation": 0.9, "test": 0.95}
    return Table2Result(accuracy={
        "rf": {
            feature_set_label(("stats", "name")): cells,
            feature_set_label(("sample1",)): {**cells, "test": 0.7},
        }
    })


def _table3():
    errors = Counter({(FeatureType.NUMERIC, FeatureType.CONTEXT_SPECIFIC): 5})
    return Table3Result(examples=[], confusion_pairs=errors, test_size=100)


_DOWNSTREAM = ("Hayes", "Zoo")


def _downstream_payload(dataset: str, ourrf: float = 80.0) -> dict:
    values = {"truth": 80.0, "pandas": 70.0, "tfdv": 70.0,
              "autogluon": 70.0, "ourrf": ourrf}
    return {
        "scores": {
            approach: {
                kind: DownstreamScore(dataset, kind, value, True)
                for kind in ("linear", "forest")
            }
            for approach, value in values.items()
        },
        "inference": {
            "pandas": (5, 10, 5), "tfdv": (8, 10, 8),
            "autogluon": (8, 10, 8), "ourrf": (10, 10, 9),
        },
    }


def _downstream(**edits):
    shards = {name: _downstream_payload(name) for name in _DOWNSTREAM}
    for name, payload in edits.items():
        shards[name] = payload
    return merge_downstream(shards, _DOWNSTREAM)


def _table7():
    return Table7Result(
        accuracy={"rf": {"test": 0.9}, "logreg": {"test": 0.75}}, n_splits=5
    )


def _table11():
    return [
        Table11Row(kind, n, 0.9, 0.8, 0.8, 0.8, 0.99, n, 100)
        for kind in ExtendedType for n in (100, 200)
    ]


def _table12():
    return [
        Table12Row(model, ablation, 0.9, {}, {}, {})
        for model in ("logreg", "rf") for ablation, _ in ABLATIONS
    ]


def _table14():
    return [
        Table14Row(semantic, 20, 15, 18, 14)
        for semantic in ("country", "state", "gender")
    ]


def _table15():
    return [
        Table15Row(approach, kind, 2, 0, 0, 5)
        for kind in ("linear", "forest")
        for approach in ("pandas:double", "tfdv:double", "autogluon:double",
                         "newrf")
    ]


def _figure9():
    return RobustnessResult(
        stability={"logreg": np.array([100.0, 96.0, 80.0]),
                   "rf": np.array([100.0, 100.0, 92.0])},
        n_runs=25,
    )


def _table17():
    n = len(ALL_FEATURE_TYPES)

    def matrix(diagonal: int) -> np.ndarray:
        m = np.full((n, n), 1)
        np.fill_diagonal(m, diagonal)
        return m

    return Table17Result(matrices={
        "rules": matrix(20), "rf": matrix(40), "sherlock": matrix(10)
    })


def _table18():
    values = {
        ft: {stat: np.array([1.0, 1.0]) for stat in TABLE18_STATS}
        for ft in ALL_FEATURE_TYPES
    }
    values[FeatureType.SENTENCE]["mean_char_count"] = np.array([40.0, 60.0])
    values[FeatureType.NUMERIC]["mean_char_count"] = np.array([4.0, 6.0])
    values[FeatureType.NOT_GENERALIZABLE]["pct_nans"] = np.array([0.5, 0.7])
    values[FeatureType.DATETIME]["pct_nans"] = np.array([0.0, 0.1])
    return DataStatsResult(values=values)


def _figure7():
    return [
        RuntimeBreakdown(model, 0.01, 0.001, 0.002)
        for model in ("logreg", "svm", "rf", "cnn", "knn")
    ]


def _labeling():
    return (
        BootstrapResult(seed_size=500, cv_accuracy=0.8, group_sizes={}),
        CrowdsourcingResult(n_workers=5, worker_accuracy=0.55,
                            majority_vote_accuracy=0.7,
                            pct_examples_with_3plus_labels=0.6),
    )


def _weak():
    return WeakSupervisionResult(
        amplification=AmplificationResult(
            n_dev=120, n_weakly_labeled=600, n_abstained=300,
            weak_label_accuracy=0.85, dev_only_model=None,
            amplified_model=None,
        ),
        dev_only_accuracy=0.8,
        amplified_accuracy=0.82,
    )


def _active():
    return {
        strategy: ActiveLearningCurve(strategy, [80, 140], [0.6, final])
        for strategy, final in (
            ("random", 0.8), ("least_confidence", 0.83), ("margin", 0.81),
        )
    }


def _importance():
    return [
        BlockImportance("stats", 0.95, 0.6),
        BlockImportance("name_bigrams", 0.95, 0.8),
        BlockImportance("sample1_bigrams", 0.95, 0.94),
    ]


BASELINES = {
    "table1": _table1, "table2": _table2, "table3": _table3,
    "downstream": _downstream, "table7": _table7, "table11": _table11,
    "table12": _table12, "table14": _table14, "table15": _table15,
    "figure9": _figure9, "table17": _table17, "table18": _table18,
    "figure7": _figure7, "labeling": _labeling, "weak": _weak,
    "active": _active, "importance": _importance,
}


# ---------------------------------------------------------------------------
# One field edited → the check names the broken shape
# ---------------------------------------------------------------------------


def _set(obj, **changes):
    return dataclasses.replace(obj, **changes)


def _edit_row(rows, index, **changes):
    rows = list(rows)
    rows[index] = _set(rows[index], **changes)
    return rows


def _edit_table1(r):
    r.nine_class["rules"] = 0.96
    return r


def _edit_table2_score(r):
    r.accuracy["rf"][feature_set_label(("stats", "name"))]["test"] = 0.8
    return r


def _edit_table2_label(r):
    r.accuracy["rf"][feature_set_label(("sample1",))]["test"] = 0.99
    return r


def _edit_table7(key, value):
    def edit(r):
        r.accuracy[key]["test"] = value
        return r
    return edit


def _edit_robustness(r):
    r.stability["rf"] = np.array([80.0, 85.0, 100.0])
    return r


def _edit_table17(key, diagonal):
    def edit(r):
        np.fill_diagonal(r.matrices[key], diagonal)
        return r
    return edit


def _edit_table18(feature_type, stat, values):
    def edit(r):
        r.values[feature_type][stat] = np.array(values)
        return r
    return edit


def _edit_active(r):
    r["margin"].test_accuracy[-1] = 0.7
    return r


EDITS = [
    ("table1", _edit_table1, "does not beat rules'"),
    ("table2", _edit_table2_score, "not above 0.85"),
    ("table2", _edit_table2_label, "neither X_stats nor X2_name"),
    # 30 errors of 100, though only 20 are listed as examples
    ("table3",
     lambda r: _set(r, examples=[None] * 20, confusion_pairs=Counter({
         (FeatureType.CATEGORICAL, FeatureType.SENTENCE): 30,
     })),
     "rf error rate 0.300"),
    ("downstream",
     lambda r: _downstream(Hayes=_downstream_payload("Hayes", ourrf=60.0)),
     "Table 5: on Hayes"),
    ("downstream",
     lambda r: _set(r, inference=[
         _set(row, covered=9) if row.approach == "ourrf" else row
         for row in r.inference
     ]),
     "Table 4(A): ourrf covers 9 of 20"),
    ("downstream",
     lambda r: _set(r, inference=[
         _set(row, covered=16) if row.approach == "pandas" else row
         for row in r.inference
     ]),
     "Table 4(A): pandas covers 16"),
    ("downstream",
     lambda r: _downstream(Hayes=_downstream_payload("Hayes", ourrf=70.0),
                           Zoo=_downstream_payload("Zoo", ourrf=50.0)),
     "Figure 8"),
    ("table7", _edit_table7("logreg", 0.95), "not above logreg's"),
    ("table7", _edit_table7("rf", 0.79), "not above 0.8"),
    ("table11", lambda r: _edit_row(r, 0, precision=0.5),
     "Country precision with N=100"),
    ("table11", lambda r: _edit_row(r, 3, recall=0.7), "State recall falls"),
    ("table12", lambda r: _edit_row(r, 6, nine_class_accuracy=0.75),
     "rf minus url feature"),
    ("table14", lambda r: _edit_row(r, 1, sherlock_given_categorical_correct=5),
     "state gated recall"),
    ("table14", lambda r: _edit_row(r, 2, ourrf_categorical=9),
     "9 of 20 gender columns"),
    ("table15", lambda r: _edit_row(r, 7, underperform_truth=3),
     "newrf underperforms truth on 3 datasets (forest)"),
    ("figure9", _edit_robustness, "rf median stability"),
    ("table17", _edit_table17("rf", 15), "rf diagonal share"),
    ("table17", _edit_table17("sherlock", 40), "not above sherlock's"),
    ("table18",
     _edit_table18(FeatureType.SENTENCE, "mean_char_count", [10.0, 20.0]),
     "Sentence mean_char_count"),
    ("table18", _edit_table18(FeatureType.DATETIME, "pct_nans", [0.9, 0.9]),
     "Not-Generalizable pct_nans"),
    ("table18",
     _edit_table18(FeatureType.NUMERIC, "mean_word_count", [1.0, 1.4]),
     "Numeric mean_word_count"),
    ("figure7", lambda r: _edit_row(r, 3, inference=0.25),
     "cnn takes 0.261 s per column"),
    ("labeling", lambda r: (_set(r[0], cv_accuracy=0.6), r[1]),
     "bootstrap 5-fold CV accuracy 0.600"),
    ("labeling", lambda r: (r[0], _set(r[1], majority_vote_accuracy=0.97)),
     "crowd majority-vote accuracy 0.970"),
    ("weak",
     lambda r: _set(r, amplification=_set(r.amplification,
                                          weak_label_accuracy=0.5)),
     "weak-label accuracy 0.500"),
    ("weak", lambda r: _set(r, amplified_accuracy=0.7),
     "more than 0.05 below dev-only"),
    ("active", _edit_active, "margin ends at 0.700"),
    ("importance", lambda r: _edit_row(r, 0, permuted_accuracy=0.94),
     "not above 0.02"),
    ("importance", lambda r: _edit_row(r, 2, permuted_accuracy=0.5),
     "less than sample1_bigrams'"),
]


@pytest.mark.parametrize("experiment", sorted(BASELINES))
def test_every_shape_holds_on_its_baseline(experiment):
    assert check_of(experiment)(BASELINES[experiment]()) == []


@pytest.mark.parametrize(
    "experiment,edit,named", EDITS,
    ids=[f"{e}-{i}" for i, (e, _, _) in enumerate(EDITS)],
)
def test_one_edited_field_names_the_broken_shape(experiment, edit, named):
    failures = check_of(experiment)(edit(BASELINES[experiment]()))
    assert len(failures) == 1, failures
    assert named in failures[0]


def test_edits_cover_every_check():
    assert {experiment for experiment, _, _ in EDITS} == set(CHECKED)


# ---------------------------------------------------------------------------
# The registry: exactly these experiments are checked, and only at scale
# ---------------------------------------------------------------------------


class _Placeholder:
    """What a stubbed experiment computes."""

    def to_json(self) -> str:
        return "{}"


@pytest.fixture
def stubbed_experiments(monkeypatch):
    """Every experiment module's ``run_*``/``merge_*``/``build_*`` returns a
    placeholder and its ``render_*`` a string, and each ``check`` reports
    its module, so the wrappers run in microseconds."""
    for module_name in (*set(CHECKED.values()), *UNCHECKED_MODULES):
        module = importlib.import_module(f"repro.benchmark.{module_name}")
        for attribute in dir(module):
            if attribute.startswith(("run_", "merge_", "build_")):
                monkeypatch.setattr(module, attribute,
                                    lambda *a, **k: _Placeholder())
            elif attribute.startswith("render_"):
                monkeypatch.setattr(module, attribute, lambda *a, **k: "text")
        if hasattr(module, "check"):
            monkeypatch.setattr(
                module, "check", lambda result, name=module_name: [name]
            )


def test_checked_experiments_are_the_paper_shapes(stubbed_experiments):
    context = BenchmarkContext(n_examples=SHAPE_CHECK_SCALE, seed=0)
    checked = {}
    for name in runner.EXPERIMENTS:
        output, failures = runner.run_experiment(name, context)
        assert output
        if failures:
            checked[name] = failures
    assert checked == {name: [module] for name, module in CHECKED.items()}


def test_sharded_merges_check_like_their_experiments(stubbed_experiments):
    context = BenchmarkContext(n_examples=SHAPE_CHECK_SCALE, seed=0)
    merged = {
        name: get_shardable(name).merge(context, {})[1]
        for name in ("table15", "downstream", "tuning")
    }
    assert merged == {
        "table15": ["table15"], "downstream": ["downstream_exp"],
        "tuning": [],
    }


def test_no_check_runs_below_the_recorded_scale(stubbed_experiments):
    context = BenchmarkContext(n_examples=SHAPE_CHECK_SCALE - 1, seed=0)
    for name in runner.EXPERIMENTS:
        assert runner.run_experiment(name, context)[1] == []
    assert get_shardable("table15").merge(context, {})[1] == []


# ---------------------------------------------------------------------------
# repro-bench: a broken shape exits 1, is named on stderr, and is replayed
# ---------------------------------------------------------------------------


@pytest.fixture
def broken_experiment(monkeypatch):
    calls: list[int] = []

    def fake(context):
        calls.append(context.n_examples)
        return "fake rows", context.shape_failures(
            lambda result: [f"fake shape broken by {result}"], "edited field"
        )

    monkeypatch.setitem(runner.EXPERIMENTS, "fake_shape", fake)
    return calls


def test_broken_shape_exits_1_and_resume_replays_it(
    broken_experiment, tmp_path, capsys
):
    run_dir = tmp_path / "run"
    argv = ["fake_shape", "--scale", str(SHAPE_CHECK_SCALE),
            "--run-dir", str(run_dir)]
    manifest = tmp_path / "run.json"
    try:
        assert runner.main([*argv, "--manifest", str(manifest)]) == 1
    finally:
        telemetry.disable().reset()
    first = capsys.readouterr()
    assert "fake rows" in first.out
    assert "fake shape broken" not in first.out  # stdout keeps the tables
    assert "1 of 1 experiment(s) broke a paper shape" in first.err
    assert "fake_shape: fake shape broken by edited field" in first.err
    entry = json.loads(manifest.read_text())["experiments"][0]
    assert entry["shape_failures"] == ["fake shape broken by edited field"]
    stored = json.loads((run_dir / "experiments" / "fake_shape.json")
                        .read_text())
    assert stored["shape_failures"] == entry["shape_failures"]

    assert runner.main([*argv, "--resume"]) == 1
    resumed = capsys.readouterr()
    assert broken_experiment == [SHAPE_CHECK_SCALE]  # replayed, not rerun
    assert resumed.out == first.out
    assert "fake_shape: fake shape broken by edited field" in resumed.err

    assert runner.main(["merge", "--run-dir", str(run_dir)]) == 1
    merged = capsys.readouterr()
    assert "fake_shape: fake shape broken by edited field" in merged.err


def test_below_the_recorded_scale_a_run_checks_nothing(
    broken_experiment, capsys
):
    assert runner.main(["fake_shape", "--scale", "300"]) == 0
    captured = capsys.readouterr()
    assert "fake rows" in captured.out
    assert captured.err == ""
