"""Golden-prediction regression gate over the canonical corpus.

``repro-bench goldens record`` freezes the per-column predictions of every
model on the canonical corpus into a committed JSON file;
``repro-bench goldens check`` re-runs the models and fails on unexplained
drift.  This converts the ad-hoc "byte-identical output" claims each perf
PR re-proves into a standing, cheap gate, so a kernel rewrite (the im2col
``Conv1D``, the corpus-vectorized Levenshtein) must reproduce every
recorded prediction before it lands.

Drift is scored two ways:

* **exact match** — the fraction of columns whose prediction is unchanged;
  every model runs float64 and exact kernels, so all five are expected to
  stay at 1.0, and ``--strict`` (what CI runs) fails on any drifted column.
* **confusion-aware similarity** — the default, non-strict check tells a
  handful of near-tie flips (say, from a BLAS or numpy upgrade that
  reorders a reduction) apart from real regressions.  Each drifted column
  scores the *affinity* of the (golden, new) class pair under the model's
  recorded confusion matrix: pairs the model already confuses against the
  ground truth are "nearby" (a CA↔NU flip on an integer categorical), while
  drift between classes the model never confused scores 0.  The per-model
  similarity score is the mean over columns (exact columns score 1), and
  the check fails when it dips under the budget (``--similarity-floor``).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from repro.benchmark.context import BenchmarkContext
from repro.obs import telemetry

GOLDEN_SCHEMA_VERSION = 1

#: Every model family the paper trains on the corpus.
DEFAULT_MODELS = ("rf", "logreg", "svm", "cnn", "knn")

#: Default committed-goldens location for a given corpus address.
GOLDENS_DIR = "benchmarks/goldens"


def default_golden_path(n_examples: int, seed: int) -> str:
    return os.path.join(GOLDENS_DIR, f"corpus-s{n_examples}-seed{seed}.json")


class GoldenMismatchError(RuntimeError):
    """Raised when a golden file cannot be compared to the requested run."""


def _confusion(truths: list[str], predictions: list[str]) -> dict[str, dict[str, int]]:
    counts: dict[str, dict[str, int]] = {}
    for truth, pred in zip(truths, predictions):
        row = counts.setdefault(truth, {})
        row[pred] = row.get(pred, 0) + 1
    return counts


def class_affinity(confusion: dict[str, dict[str, int]], a: str, b: str) -> float:
    """How interchangeable classes ``a`` and ``b`` are under a confusion
    matrix: the fraction of their combined mass the model already mixes.

    1.0 would mean the model never separates them; 0.0 means it never
    confuses one for the other (so drift between them is suspicious).
    """
    if a == b:
        return 1.0
    ab = confusion.get(a, {}).get(b, 0)
    ba = confusion.get(b, {}).get(a, 0)
    aa = confusion.get(a, {}).get(a, 0)
    bb = confusion.get(b, {}).get(b, 0)
    total = ab + ba + aa + bb
    if total == 0:
        return 0.0
    return (ab + ba) / total


def record_goldens(
    context: BenchmarkContext, models: tuple[str, ...] = DEFAULT_MODELS
) -> dict:
    """Predictions of every model on every column of the canonical corpus.

    Models are fit on the canonical 80:20 train split (the context's usual
    protocol) and predict the *whole* corpus, so the gate covers train and
    test columns alike.  The recorded confusion matrix (vs ground truth)
    is what ``check`` later uses to score drift affinity.
    """
    profiles = context.dataset.profiles
    truths = [label.value for label in context.dataset.labels]
    payload: dict = {
        "schema_version": GOLDEN_SCHEMA_VERSION,
        "corpus": {"n_examples": context.n_examples, "seed": context.seed},
        "columns": [
            {"file": p.source_file, "column": p.name, "truth": truth}
            for p, truth in zip(profiles, truths)
        ],
        "models": {},
    }
    for name in models:
        with telemetry.span(
            "goldens.record", model=name, n_columns=len(profiles)
        ):
            model = context.model(name)
            predictions = [p.value for p in model.predict(profiles)]
        n_correct = sum(p == t for p, t in zip(predictions, truths))
        payload["models"][name] = {
            "predictions": predictions,
            "accuracy": n_correct / len(truths),
            "confusion": _confusion(truths, predictions),
        }
    return payload


def write_goldens(path: str, payload: dict) -> None:
    """Deterministic, diff-friendly JSON (sorted keys, trailing newline)."""
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)


def load_goldens(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise GoldenMismatchError(f"cannot read goldens {path!r}: {exc}") from exc
    if (
        not isinstance(payload, dict)
        or payload.get("schema_version") != GOLDEN_SCHEMA_VERSION
    ):
        raise GoldenMismatchError(
            f"{path!r} is not a schema-v{GOLDEN_SCHEMA_VERSION} goldens file"
        )
    return payload


@dataclass
class DriftedColumn:
    file: str
    column: str
    golden: str
    new: str
    truth: str
    affinity: float

    def describe(self) -> str:
        return (
            f"{self.file}/{self.column}: golden {self.golden!r} -> new "
            f"{self.new!r} (truth {self.truth!r}, affinity {self.affinity:.3f})"
        )


@dataclass
class ModelCheck:
    model: str
    n_columns: int
    n_exact: int
    similarity: float
    accuracy_golden: float
    accuracy_new: float
    drifted: list[DriftedColumn] = field(default_factory=list)

    @property
    def exact(self) -> bool:
        return self.n_exact == self.n_columns


@dataclass
class GoldenCheckReport:
    path: str
    corpus: dict
    models: list[ModelCheck]
    similarity_floor: float
    strict: bool

    @property
    def failures(self) -> list[ModelCheck]:
        out = []
        for check in self.models:
            if check.similarity < self.similarity_floor:
                out.append(check)
            elif self.strict and not check.exact:
                out.append(check)
        return out

    @property
    def ok(self) -> bool:
        return not self.failures

    def render(self) -> str:
        lines = [
            f"golden check vs {self.path} "
            f"(corpus n={self.corpus['n_examples']} seed={self.corpus['seed']}, "
            f"{len(self.models)} model(s), similarity floor "
            f"{self.similarity_floor:.4f}"
            + (", strict)" if self.strict else ")")
        ]
        for check in self.models:
            failed = check in self.failures
            status = "FAIL" if failed else ("OK" if check.exact else "DRIFT-OK")
            lines.append(
                f"  {check.model:<8} {check.n_exact}/{check.n_columns} exact  "
                f"similarity {check.similarity:.4f}  "
                f"accuracy {check.accuracy_golden:.4f} -> "
                f"{check.accuracy_new:.4f}  {status}"
            )
            for drift in check.drifted:
                lines.append(f"    {drift.describe()}")
        if self.ok:
            lines.append("goldens: PASS")
        else:
            names = ", ".join(c.model for c in self.failures)
            lines.append(f"goldens: FAIL ({names})")
        return "\n".join(lines)


def check_goldens(
    context: BenchmarkContext,
    golden: dict,
    models: tuple[str, ...] | None = None,
    similarity_floor: float = 0.995,
    strict: bool = False,
    path: str = "<goldens>",
) -> GoldenCheckReport:
    """Re-run the recorded models and diff their predictions per column."""
    recorded_corpus = golden.get("corpus", {})
    requested = {"n_examples": context.n_examples, "seed": context.seed}
    if recorded_corpus != requested:
        raise GoldenMismatchError(
            f"goldens were recorded on corpus {recorded_corpus}, "
            f"but the check is running on {requested}"
        )
    available = golden.get("models", {})
    names = tuple(models) if models is not None else tuple(sorted(available))
    missing = [name for name in names if name not in available]
    if missing:
        raise GoldenMismatchError(
            f"goldens have no recording for model(s): {', '.join(missing)}"
        )
    profiles = context.dataset.profiles
    columns = golden["columns"]
    if len(columns) != len(profiles):
        raise GoldenMismatchError(
            f"goldens cover {len(columns)} columns but the corpus "
            f"has {len(profiles)}"
        )
    for record, profile in zip(columns, profiles):
        if record["file"] != profile.source_file or record["column"] != profile.name:
            raise GoldenMismatchError(
                f"column order mismatch at {record['file']}/{record['column']} "
                f"vs {profile.source_file}/{profile.name}"
            )
    truths = [label.value for label in context.dataset.labels]
    checks = []
    for name in names:
        recorded = available[name]
        with telemetry.span(
            "goldens.check", model=name, n_columns=len(profiles)
        ):
            model = context.model(name)
            predictions = [p.value for p in model.predict(profiles)]
        confusion = recorded["confusion"]
        drifted = []
        similarity_sum = 0.0
        for record, golden_pred, new_pred, truth in zip(
            columns, recorded["predictions"], predictions, truths
        ):
            if golden_pred == new_pred:
                similarity_sum += 1.0
                continue
            affinity = class_affinity(confusion, golden_pred, new_pred)
            similarity_sum += affinity
            drifted.append(
                DriftedColumn(
                    file=record["file"], column=record["column"],
                    golden=golden_pred, new=new_pred, truth=truth,
                    affinity=affinity,
                )
            )
        n_correct = sum(p == t for p, t in zip(predictions, truths))
        checks.append(
            ModelCheck(
                model=name,
                n_columns=len(profiles),
                n_exact=len(profiles) - len(drifted),
                similarity=similarity_sum / len(profiles),
                accuracy_golden=recorded["accuracy"],
                accuracy_new=n_correct / len(truths),
                drifted=drifted,
            )
        )
        telemetry.count("goldens.drifted_columns", len(drifted))
    return GoldenCheckReport(
        path=path,
        corpus=recorded_corpus,
        models=checks,
        similarity_floor=similarity_floor,
        strict=strict,
    )
