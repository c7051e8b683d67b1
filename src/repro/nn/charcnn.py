"""The paper's character-level CNN (Appendix F), in pure numpy.

Architecture: every text input (attribute name, sample values) goes through
an Embedding, two cascaded Conv1D layers (ReLU), and a global max pool; all
pooled vectors are concatenated with the descriptive statistics and fed to a
two-hidden-layer MLP with dropout and a softmax output.  Trained end-to-end
with Adam, in float64, in one ``fit`` call of ``epochs`` passes; the golden
predictions (``repro-bench goldens``) freeze its output bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseEstimator, ClassifierMixin
from repro.ml.preprocessing import LabelEncoder
from repro.obs import telemetry
from repro.nn.encoding import VOCAB_SIZE, encode_batch
from repro.nn.layers import (
    Conv1D,
    Dense,
    Dropout,
    Embedding,
    GlobalMaxPool1D,
    ReLU,
)
from repro.nn.losses import softmax, softmax_cross_entropy
from repro.nn.optim import Adam


class _CNNBlock:
    """Embedding → Conv1D → ReLU → Conv1D → ReLU → GlobalMaxPool."""

    def __init__(
        self,
        embed_dim: int,
        num_filters: int,
        filter_size: int,
        rng: np.random.Generator,
    ):
        self.layers = [
            Embedding(VOCAB_SIZE, embed_dim, rng),
            Conv1D(embed_dim, num_filters, filter_size, rng),
            ReLU(),
            Conv1D(num_filters, num_filters, filter_size, rng),
            ReLU(),
            GlobalMaxPool1D(),
        ]
        self.out_dim = num_filters

    def forward(self, codes: np.ndarray, training: bool) -> np.ndarray:
        out = codes
        for layer in self.layers:
            out = layer.forward(out, training)
        return out

    def backward(self, grad: np.ndarray) -> None:
        for layer in reversed(self.layers):
            grad = layer.backward(grad)

    def parameters(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        params, grads = [], []
        for layer in self.layers:
            params.extend(layer.params)
            grads.extend(layer.grads)
        return params, grads


class CharCNNClassifier(BaseEstimator, ClassifierMixin):
    """Multi-input char-CNN classifier over text fields + a stats vector.

    ``fit`` takes ``text_fields`` — a list of F fields, each a list of N
    strings — an optional (N, S) stats matrix, and N labels.  Either part may
    be omitted (``text_fields=[]`` or ``stats=None``), matching the feature
    set ablations of Table 2.
    """

    def __init__(
        self,
        embed_dim: int = 64,
        num_filters: int = 32,
        filter_size: int = 2,
        hidden_units: int = 250,
        dropout: float = 0.25,
        max_len: int = 24,
        epochs: int = 12,
        batch_size: int = 64,
        lr: float = 1e-3,
        random_state: int = 0,
    ):
        self.embed_dim = embed_dim
        self.num_filters = num_filters
        self.filter_size = filter_size
        self.hidden_units = hidden_units
        self.dropout = dropout
        self.max_len = max_len
        self.epochs = epochs
        self.batch_size = batch_size
        self.lr = lr
        self.random_state = random_state

    # -- internals -----------------------------------------------------------
    def _encode_fields(self, text_fields: list[list[str]]) -> list[np.ndarray]:
        return [
            encode_batch(field, self.max_len, dtype=np.int32)
            for field in text_fields
        ]

    def _forward(
        self, coded_fields: list[np.ndarray], stats: np.ndarray | None, training: bool
    ) -> np.ndarray:
        pooled = [
            block.forward(codes, training)
            for block, codes in zip(self._blocks, coded_fields)
        ]
        if stats is not None:
            pooled.append(stats)
        self._concat_parts = [part.shape[1] for part in pooled]
        out = np.concatenate(pooled, axis=1) if len(pooled) > 1 else pooled[0]
        for layer in self._head:
            out = layer.forward(out, training)
        return out

    def _backward(self, grad: np.ndarray) -> None:
        for layer in reversed(self._head):
            grad = layer.backward(grad)
        offsets = np.cumsum([0] + self._concat_parts)
        for i, block in enumerate(self._blocks):
            block.backward(grad[:, offsets[i] : offsets[i + 1]])
        # the stats slice (if any) is an input; no gradient needed

    def _standardize_stats(self, stats, fit: bool) -> np.ndarray | None:
        if stats is None:
            return None
        stats = np.asarray(stats, dtype=np.float64)
        if fit:
            self._stats_mean = stats.mean(axis=0)
            std = stats.std(axis=0)
            std[std == 0.0] = 1.0
            self._stats_std = std
        return (stats - self._stats_mean) / self._stats_std

    def _build_network(self, stats_dim: int, n_classes: int) -> None:
        """Construct blocks/head/optimizer from ``self._rng`` (fresh draws)."""
        self._blocks = [
            _CNNBlock(self.embed_dim, self.num_filters, self.filter_size, self._rng)
            for _ in range(self._n_fields)
        ]
        concat_dim = sum(block.out_dim for block in self._blocks) + stats_dim
        self._head = [
            Dense(concat_dim, self.hidden_units, self._rng),
            ReLU(),
            Dropout(self.dropout, self._rng),
            Dense(self.hidden_units, self.hidden_units, self._rng),
            ReLU(),
            Dropout(self.dropout, self._rng),
            Dense(self.hidden_units, n_classes, self._rng),
        ]
        params, grads = [], []
        for block in self._blocks:
            block_params, block_grads = block.parameters()
            params.extend(block_params)
            grads.extend(block_grads)
        for layer in self._head:
            params.extend(layer.params)
            grads.extend(layer.grads)
        self._params = params
        self._optimizer = Adam(params, grads, lr=self.lr)

    # -- API -------------------------------------------------------------------
    def fit(self, text_fields: list[list[str]], stats, y) -> "CharCNNClassifier":
        """Train the network from fresh weights for ``epochs`` passes."""
        if not text_fields and stats is None:
            raise ValueError("need at least one text field or a stats matrix")
        n = len(y)
        for field in text_fields:
            if len(field) != n:
                raise ValueError("text field length mismatch with y")

        self._rng = np.random.default_rng(self.random_state)
        self._encoder = LabelEncoder().fit(y)
        self.classes_ = self._encoder.classes_
        stats_matrix = self._standardize_stats(stats, fit=True)
        stats_dim = 0 if stats_matrix is None else stats_matrix.shape[1]
        self._n_fields = len(text_fields)
        self._build_network(stats_dim, len(self.classes_))
        self.history_ = []

        targets = self._encoder.transform(y)
        coded = self._encode_fields(text_fields)
        for epoch in range(self.epochs):
            order = self._rng.permutation(n)
            epoch_loss = 0.0
            with telemetry.span("charcnn.epoch", epoch=epoch, n_examples=n) as sp:
                for start in range(0, n, self.batch_size):
                    batch = order[start : start + self.batch_size]
                    batch_fields = [codes[batch] for codes in coded]
                    batch_stats = (
                        stats_matrix[batch] if stats_matrix is not None else None
                    )
                    with telemetry.span("charcnn.batch", size=len(batch)):
                        self._optimizer.zero_grad()
                        logits = self._forward(
                            batch_fields, batch_stats, training=True
                        )
                        loss, grad = softmax_cross_entropy(logits, targets[batch])
                        self._backward(grad)
                        self._optimizer.step()
                    telemetry.count("charcnn.batches")
                    epoch_loss += loss * len(batch)
            mean_loss = epoch_loss / n
            self.history_.append(mean_loss)
            if telemetry.enabled:
                telemetry.gauge("charcnn.loss", mean_loss)
                telemetry.observe("charcnn.epoch_s", sp.wall_s)
                telemetry.debug(
                    "charcnn.epoch", epoch=epoch, loss=mean_loss, wall_s=sp.wall_s
                )
        return self

    def predict_proba(self, text_fields: list[list[str]], stats) -> np.ndarray:
        self._check_fitted("_head")
        if len(text_fields) != self._n_fields:
            raise ValueError(
                f"model was fit with {self._n_fields} text fields, "
                f"got {len(text_fields)}"
            )
        coded = self._encode_fields(text_fields)
        stats_matrix = self._standardize_stats(stats, fit=False)
        logits = self._forward(coded, stats_matrix, training=False)
        return softmax(logits)

    def predict(self, text_fields: list[list[str]], stats) -> list:
        probs = self.predict_proba(text_fields, stats)
        return self._encoder.inverse_transform(np.argmax(probs, axis=1))

    def score(self, text_fields: list[list[str]], stats, y) -> float:
        pred = self.predict(text_fields, stats)
        return float(
            np.mean(np.asarray(pred, dtype=object) == np.asarray(y, dtype=object))
        )
