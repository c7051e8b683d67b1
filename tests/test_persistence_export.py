"""Tests for model persistence and corpus export/load."""

import pytest

from repro.core.models import RandomForestModel
from repro.core.persistence import (
    ModelFormatError,
    ModelPersistenceError,
    fingerprint_model,
    load_model,
    model_fingerprint,
    save_model,
)
from repro.datagen.corpus import generate_corpus
from repro.datagen.export import export_corpus, load_corpus


@pytest.fixture(scope="module")
def tiny_setup():
    corpus = generate_corpus(n_examples=150, seed=3)
    model = RandomForestModel(n_estimators=8, random_state=0)
    model.fit(corpus.dataset)
    return corpus, model


class TestPersistence:
    def test_roundtrip_predictions_identical(self, tiny_setup, tmp_path):
        corpus, model = tiny_setup
        path = tmp_path / "rf.model"
        save_model(model, path)
        loaded = load_model(path)
        profiles = corpus.dataset.profiles[:20]
        assert loaded.predict(profiles) == model.predict(profiles)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.model"
        path.write_bytes(b"not a model at all")
        with pytest.raises(ModelPersistenceError, match="not a repro model"):
            load_model(path)

    def test_wrong_payload_rejected(self, tmp_path):
        import pickle

        from repro.core.persistence import _MAGIC

        path = tmp_path / "weird.model"
        path.write_bytes(
            _MAGIC + pickle.dumps({"format_version": 1, "model": "nope"})
        )
        with pytest.raises(ModelPersistenceError, match="does not contain"):
            load_model(path)

    def test_wrong_version_rejected(self, tmp_path, tiny_setup):
        import pickle

        from repro.core.persistence import _MAGIC

        _corpus, model = tiny_setup
        path = tmp_path / "old.model"
        path.write_bytes(
            _MAGIC + pickle.dumps({"format_version": 99, "model": model})
        )
        with pytest.raises(ModelPersistenceError, match="version"):
            load_model(path)

    def test_format_errors_are_typed(self, tmp_path, tiny_setup):
        import pickle

        from repro.core.persistence import _MAGIC

        _corpus, model = tiny_setup
        versionless = tmp_path / "versionless.model"
        versionless.write_bytes(_MAGIC + pickle.dumps({"model": model}))
        with pytest.raises(ModelFormatError, match="format_version"):
            load_model(versionless)

        wrong_version = tmp_path / "future.model"
        wrong_version.write_bytes(
            _MAGIC + pickle.dumps({"format_version": 99, "model": model})
        )
        with pytest.raises(ModelFormatError, match="version"):
            load_model(wrong_version)
        # Typed subclass: existing except ModelPersistenceError still works.
        assert issubclass(ModelFormatError, ModelPersistenceError)

    def test_artifact_with_legacy_dtype_key_loads(self, tiny_setup, tmp_path):
        """Artifacts once carried a ``"dtype"`` key next to the model; the
        loader never reads it, so those files still load and predict."""
        import pickle

        from repro.core.persistence import _MAGIC

        corpus, model = tiny_setup
        path = tmp_path / "legacy.model"
        path.write_bytes(
            _MAGIC
            + pickle.dumps({"format_version": 1, "model": model, "dtype": None})
        )
        profiles = corpus.dataset.profiles[:20]
        assert load_model(path).predict(profiles) == model.predict(profiles)

    def test_model_fingerprint(self, tiny_setup, tmp_path):
        _corpus, model = tiny_setup
        path = tmp_path / "fp.model"
        save_model(model, path)
        on_disk = model_fingerprint(path)
        assert len(on_disk) == 64 and int(on_disk, 16) >= 0
        # In-memory fingerprint matches what the saved artifact reports.
        assert fingerprint_model(model) == on_disk
        # Same bytes → same fingerprint; different artifact → different.
        other = tmp_path / "fp2.model"
        save_model(model, other)
        assert model_fingerprint(other) == on_disk
        with pytest.raises(ModelFormatError, match="not a repro model"):
            junk = tmp_path / "junk.bin"
            junk.write_bytes(b"nope")
            model_fingerprint(junk)


class TestCorpusExport:
    def test_roundtrip(self, tiny_setup, tmp_path):
        corpus, _model = tiny_setup
        manifest = export_corpus(corpus, tmp_path)
        assert manifest.exists()
        loaded = load_corpus(tmp_path)
        assert loaded.n_files == corpus.n_files
        assert loaded.n_examples == corpus.n_examples
        assert loaded.truth == corpus.truth
        # labels survive per profile
        original = {
            (p.source_file, p.name): p.label for p in corpus.dataset.profiles
        }
        for profile in loaded.dataset.profiles:
            assert original[(profile.source_file, profile.name)] is profile.label

    def test_loaded_corpus_trains_a_model(self, tiny_setup, tmp_path):
        corpus, _model = tiny_setup
        export_corpus(corpus, tmp_path)
        loaded = load_corpus(tmp_path)
        model = RandomForestModel(n_estimators=5).fit(loaded.dataset)
        assert model.score(loaded.dataset) > 0.8

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="labels.csv"):
            load_corpus(tmp_path)
