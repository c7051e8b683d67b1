"""``repro-infer``'s default path: one exact streaming pass.

Without ``--stream`` the CLI profiles the file through the streaming sketch
with no distinct-value cap and an uncapped delimiter sniff, so it must give
the answer of the materializing path it replaced,
``predict_table(load_csv_table(path))``: the same stdout, exit code and
last stderr line, on every input.  It must also peak below that path's
memory on a file much longer than one chunk.
"""

from __future__ import annotations

import json
import tracemalloc
from pathlib import Path

import pytest

from repro.cli import _render
from repro.cli import main as infer_main
from repro.core.featurize import ProfileError
from repro.core.persistence import load_model
from repro.core.pipeline import TypeInferencePipeline
from repro.core.stats import STAT_NAMES
from repro.faults import FaultPlan, faults
from repro.sketch import (
    DEFAULT_CHUNK_ROWS,
    DEFAULT_DISTINCT_CAP,
    profile_csv_stream,
)
from repro.tabular.csv_io import (
    DEFAULT_SNIFF_CHARS,
    CSVReadError,
    load_csv_table,
    sniff_delimiter,
)

MANGLED_DIR = Path(__file__).parent / "data" / "mangled"
NUM_DISTINCT = STAT_NAMES.index("num_distinct")


def materialized_answer(path, model_path) -> tuple[int, str, str]:
    """(exit code, stdout, last stderr line) of ``repro-infer PATH --model
    MODEL --json`` when it read the file into a ``Table``."""
    try:
        table = load_csv_table(path)
        pipeline = TypeInferencePipeline(load_model(model_path))
        predictions = pipeline.predict_table(table)
    except (CSVReadError, ProfileError) as exc:
        return 2, "", f"repro-infer: {exc}"
    return 0, _render([p.as_dict() for p in predictions], True) + "\n", ""


def cli_answer(capsys, path, model_path, *flags) -> tuple[int, str, str]:
    code = infer_main([str(path), "--model", str(model_path), "--json",
                       *flags])
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    return code, captured.out, lines[-1] if lines else ""


def write_distinct_csv(path: Path, n_distinct: int) -> None:
    """One column with ``n_distinct`` values and one repeated column."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("email,channel\n")
        for i in range(n_distinct):
            channel = ("web", "store", "phone")[i % 3]
            handle.write(f"user{i}@mail.example.net,{channel}\n")


def write_long_prefix_csv(path: Path) -> None:
    """``;``-delimited, but its first 20 lines are longer than
    ``DEFAULT_SNIFF_CHARS``: every line the capped sniff sees holds three
    commas and one ``;``, and the lines after them hold no comma."""
    pad = "w" * 60_000
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("code,a,b,c;note\n")
        for i in range(18):
            handle.write(f"{i},a,b,c;{pad}{i}\n")
        for i in range(18, 40):
            handle.write(f"{i};short note {i}\n")


def write_high_cardinality_csv(path: Path, n_rows: int) -> None:
    """Six chunks of rows: 50,000 distinct order ids, each on about two
    rows, and two low-cardinality columns."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("order_id,channel,quantity\n")
        for i in range(n_rows):
            channel = ("web", "store", "phone", "partner")[i % 4]
            handle.write(f"{7_000_000 + i % 50_000},{channel},{1 + i * 7 % 50}\n")


def traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestDefaultPathParity:
    @pytest.mark.parametrize(
        "name", sorted(p.name for p in MANGLED_DIR.glob("*.csv"))
    )
    def test_mangled_file(self, name, saved_model, capsys):
        path = MANGLED_DIR / name
        assert cli_answer(capsys, path, saved_model) == \
            materialized_answer(path, saved_model)

    def test_directory_path(self, tmp_path, saved_model, capsys):
        answer = cli_answer(capsys, tmp_path, saved_model)
        assert answer == materialized_answer(tmp_path, saved_model)
        assert answer[0] == 2

    def test_read_fault(self, tmp_path, saved_model, capsys):
        path = MANGLED_DIR / "crlf.csv"
        plan = {"seed": 0, "rules": [
            {"point": "csv.read_chunk", "mode": "error", "on_call": 1}
        ]}
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan))
        try:
            answer = cli_answer(capsys, path, saved_model,
                                "--fault-plan", str(plan_path))
            faults.install(FaultPlan.from_dict(plan))
            expected = materialized_answer(path, saved_model)
        finally:
            faults.clear()
        assert answer == expected
        assert answer[0] == 2

    def test_column_past_the_stream_cap(self, tmp_path, saved_model, capsys):
        path = tmp_path / "ids.csv"
        write_distinct_csv(path, 70_000)
        expected = materialized_answer(path, saved_model)
        assert expected[0] == 0
        # --stream reports the cap as the column's distinct count, which
        # moves its prediction; the default path counts every value.
        capped = profile_csv_stream(path)
        assert capped[0].stats.values[NUM_DISTINCT] == DEFAULT_DISTINCT_CAP
        assert cli_answer(capsys, path, saved_model, "--stream") != expected
        assert cli_answer(capsys, path, saved_model) == expected

    def test_delimiter_sniff_is_uncapped(self, tmp_path, saved_model, capsys):
        path = tmp_path / "long_prefix.csv"
        write_long_prefix_csv(path)
        text = path.read_text(encoding="utf-8")
        assert len("".join(text.splitlines(True)[:20])) > DEFAULT_SNIFF_CHARS
        assert sniff_delimiter(text[:DEFAULT_SNIFF_CHARS]) == ","
        assert sniff_delimiter(text) == ";"
        answer = cli_answer(capsys, path, saved_model)
        assert answer == materialized_answer(path, saved_model)
        columns = [row["column"] for row in json.loads(answer[1])]
        assert columns == ["code,a,b,c", "note"]


class TestDefaultPathMemory:
    def test_peak_below_the_materializing_path(
        self, tmp_path, saved_model, capsys
    ):
        """The default path holds one chunk of rows and each column's
        distinct values, not the whole table and the batch kernel's
        whole-table arrays.  On this 98,304-row file (six chunks) its
        traced peak measured 29.3 MB against 40.5 MB for
        ``load_csv_table`` + ``predict_table``, a ratio of 0.72
        (python 3.11, numpy 2.x); materializing the table again reads
        1.0 and fails the 0.85 bound."""
        warm = tmp_path / "warm.csv"
        warm.write_text("order_id,channel\n1,web\n")
        cli_answer(capsys, warm, saved_model)
        materialized_answer(warm, saved_model)
        path = tmp_path / "orders.csv"
        write_high_cardinality_csv(path, 6 * DEFAULT_CHUNK_ROWS)

        answers = []
        streamed = traced_peak(
            lambda: answers.append(cli_answer(capsys, path, saved_model))
        )
        materialized = traced_peak(
            lambda: answers.append(materialized_answer(path, saved_model))
        )
        assert answers[0] == answers[1]
        assert streamed < 0.85 * materialized, (
            f"traced peak {streamed / 1e6:.1f} MB vs "
            f"{materialized / 1e6:.1f} MB materialized"
        )
