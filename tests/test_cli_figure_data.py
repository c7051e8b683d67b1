"""Tests for the repro-infer CLI and the figure-data exporters."""

import json

import pytest

from repro.cli import main as infer_main
from repro.tabular.column import Column
from repro.tabular.csv_io import write_csv
from repro.tabular.table import Table


@pytest.fixture()
def sample_csv(tmp_path):
    table = Table(
        [
            Column("id", [str(i) for i in range(40)]),
            Column("salary", [str(1000 + 13 * i) for i in range(40)]),
            Column("state", ["CA", "TX", "NY", "WA"] * 10),
        ],
        name="sample",
    )
    path = tmp_path / "sample.csv"
    write_csv(table, path)
    return path


class TestInferCli:
    def test_table_output_with_saved_model(self, sample_csv, saved_model, capsys):
        code = infer_main([str(sample_csv), "--model", str(saved_model)])
        assert code == 0
        out = capsys.readouterr().out
        assert "salary" in out and "feature type" in out

    def test_json_output(self, sample_csv, saved_model, capsys):
        code = infer_main(
            [str(sample_csv), "--model", str(saved_model), "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert {row["column"] for row in payload} == {"id", "salary", "state"}
        for row in payload:
            assert 0.0 <= row["confidence"] <= 1.0

    def test_trains_and_saves_when_no_artifact(self, sample_csv, tmp_path, capsys):
        artifact = tmp_path / "fresh.model"
        code = infer_main(
            [str(sample_csv), "--save", str(artifact),
             "--train-examples", "150", "--trees", "6"]
        )
        assert code == 0
        assert artifact.exists()

    def test_missing_file_errors(self, saved_model):
        with pytest.raises(SystemExit):
            infer_main(["/does/not/exist.csv", "--model", str(saved_model)])

    def test_empty_csv_exits_nonzero(self, saved_model, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        code = infer_main([str(empty), "--model", str(saved_model)])
        assert code == 2
        captured = capsys.readouterr()
        assert "empty CSV" in captured.err
        assert captured.out == ""

    def test_unreadable_csv_exits_nonzero(self, saved_model, tmp_path, capsys):
        # A UTF-16 BOM followed by bytes that are not valid UTF-16: the file
        # declares its encoding and lies, which is unsalvageable.
        binary = tmp_path / "binary.csv"
        binary.write_bytes(b"\xff\xfe\x00\x01garbage")
        code = infer_main([str(binary), "--model", str(saved_model)])
        assert code == 2
        assert "not valid utf-16-le" in capsys.readouterr().err

    def test_too_few_train_examples_exits_2(self, sample_csv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            infer_main([str(sample_csv), "--train-examples", "20",
                        "--trees", "1"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1] == (
            "repro-infer: error: argument --train-examples: must be at "
            "least 50 to cover the nine classes, got 20"
        )

    @pytest.mark.parametrize("flag", ["--chunk-rows", "--distinct-cap"])
    def test_zero_stream_size_exits_2(self, sample_csv, capsys, flag):
        with pytest.raises(SystemExit) as exit_info:
            infer_main([str(sample_csv), flag, "0"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1] == (
            f"repro-infer: error: argument {flag}: must be at least 1, got 0"
        )

    def test_train_examples_floor_is_the_corpus_floor(self):
        from repro.core.models import MIN_TRAIN_EXAMPLES
        from repro.datagen.corpus import generate_corpus

        with pytest.raises(ValueError, match="at least 50 examples"):
            generate_corpus(n_examples=MIN_TRAIN_EXAMPLES - 1)
        assert len(generate_corpus(n_examples=MIN_TRAIN_EXAMPLES).dataset) \
            == MIN_TRAIN_EXAMPLES


class TestFigureData:
    def test_export_figure9_and_10(self, small_context, tmp_path):
        from repro.benchmark.datastats import run_datastats
        from repro.benchmark.figure_data import export_figure9, export_figure10
        from repro.benchmark.robustness import run_robustness

        robustness = run_robustness(
            small_context, models=("rf",), n_runs=3, max_columns=15
        )
        paths = export_figure9(robustness, tmp_path)
        assert len(paths) == 1
        content = paths[0].read_text()
        assert "pct_predictions_unchanged" in content

        stats = run_datastats(small_context)
        paths = export_figure10(stats, tmp_path)
        assert len(paths) == 5  # one per TABLE18 stat
        assert "cumulative_fraction" in paths[0].read_text()

    def test_export_figure8(self, small_context, tmp_path):
        from repro.benchmark.downstream_exp import run_downstream_experiment
        from repro.benchmark.figure_data import export_figure8

        result = run_downstream_experiment(
            small_context, dataset_names=("Hayes", "MBA"), seed=1
        )
        paths = export_figure8(result, tmp_path)
        assert len(paths) == 8  # 4 approaches x 2 model kinds
        for path in paths:
            assert path.exists()
