"""Numpy neural-net substrate (no TensorFlow/Keras available) + char-CNN."""

from repro.nn.charcnn import CharCNNClassifier
from repro.nn.encoding import PAD_CODE, UNK_CODE, VOCAB_SIZE, encode_batch, encode_text
from repro.nn.layers import (
    Conv1D,
    Dense,
    Dropout,
    Embedding,
    GlobalMaxPool1D,
    Layer,
    ReLU,
)
from repro.nn.losses import softmax, softmax_cross_entropy
from repro.nn.optim import Adam

__all__ = [
    "Adam",
    "CharCNNClassifier",
    "Conv1D",
    "Dense",
    "Dropout",
    "Embedding",
    "GlobalMaxPool1D",
    "Layer",
    "PAD_CODE",
    "ReLU",
    "UNK_CODE",
    "VOCAB_SIZE",
    "encode_batch",
    "encode_text",
    "softmax",
    "softmax_cross_entropy",
]
