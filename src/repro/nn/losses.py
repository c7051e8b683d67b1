"""Losses for the numpy NN substrate.

Probabilities and gradients are float64 arrays; the scalar loss is a
python float.
"""

from __future__ import annotations

import numpy as np


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-shift stabilization."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def softmax_cross_entropy(
    logits: np.ndarray, targets: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy of integer ``targets`` and its gradient w.r.t. logits."""
    n = logits.shape[0]
    probs = softmax(logits)
    eps = 1e-12
    loss = -float(np.mean(np.log(probs[np.arange(n), targets] + eps)))
    grad = probs.copy()
    grad[np.arange(n), targets] -= 1.0
    grad /= n
    return loss, grad
