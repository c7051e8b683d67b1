"""The optimizer for the numpy NN substrate."""

from __future__ import annotations

import numpy as np


class Adam:
    """Adam with the Keras default hyper-parameters the paper used."""

    def __init__(
        self,
        params: list[np.ndarray],
        grads: list[np.ndarray],
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-7,
    ):
        if len(params) != len(grads):
            raise ValueError("params and grads must align")
        self.params = params
        self.grads = grads
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m = [np.zeros_like(p) for p in params]
        self._v = [np.zeros_like(p) for p in params]
        self._t = 0

    def step(self) -> None:
        """Apply one update from the currently accumulated gradients."""
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        for param, grad, m, v in zip(self.params, self.grads, self._m, self._v):
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            param -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)

    def zero_grad(self) -> None:
        for grad in self.grads:
            grad[...] = 0.0
