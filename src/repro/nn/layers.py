"""Neural network layers with explicit forward/backward passes (pure numpy).

The layer contract: ``forward(x, training)`` caches whatever the backward
pass needs, ``backward(grad_out)`` returns the gradient w.r.t. the input and
accumulates parameter gradients into ``grads`` (aligned with ``params``).
Layers that terminate the graph (integer-input embeddings) return ``None``
from ``backward`` — their inputs carry no gradient.

Parameters, activations and gradients are float64 throughout.

``Conv1D`` uses an im2col memory layout: the forward pass materializes the
sliding windows as one ``(batch*out_seq, kernel*channels)`` matrix so the
convolution is a single GEMM, and the backward pass is two GEMMs plus a
col2im fold.  Per-call scratch buffers are preallocated and reused across
batches of the same shape.
"""

from __future__ import annotations

import numpy as np


class Layer:
    """Base class; parameterless layers keep ``params``/``grads`` empty."""

    def __init__(self):
        self.params: list[np.ndarray] = []
        self.grads: list[np.ndarray] = []

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray | None:
        raise NotImplementedError

    def zero_grad(self) -> None:
        for grad in self.grads:
            grad[...] = 0.0


class Embedding(Layer):
    """Map integer char codes (batch, seq) to dense vectors (batch, seq, dim).

    Index 0 is reserved for padding and stays a zero vector.
    """

    def __init__(
        self,
        vocab_size: int,
        embed_dim: int,
        rng: np.random.Generator,
    ):
        super().__init__()
        scale = 1.0 / np.sqrt(embed_dim)
        self.weight = rng.normal(0.0, scale, size=(vocab_size, embed_dim))
        self.weight[0] = 0.0
        self.params = [self.weight]
        self.grads = [np.zeros_like(self.weight)]

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._indices = x
        return self.weight[x]

    def backward(self, grad_out: np.ndarray) -> None:
        np.add.at(self.grads[0], self._indices, grad_out)
        self.grads[0][0] = 0.0  # padding row never updates
        return None  # integer indices carry no gradient


class Conv1D(Layer):
    """1-D convolution over (batch, seq, in_channels), 'valid' padding.

    im2col layout: ``forward`` flattens the sliding windows into a
    ``(batch*out_seq, kernel*channels)`` matrix (one copy) and runs a single
    GEMM against the ``(kernel*channels, filters)``-reshaped weight.
    ``backward`` is two GEMMs (weight gradient, column gradient) plus a
    col2im fold that scatters window gradients back onto the sequence.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        rng: np.random.Generator,
    ):
        super().__init__()
        scale = np.sqrt(2.0 / (kernel_size * in_channels))
        self.weight = rng.normal(
            0.0, scale, size=(kernel_size, in_channels, out_channels)
        )
        self.bias = np.zeros(out_channels)
        self.kernel_size = kernel_size
        self.params = [self.weight, self.bias]
        self.grads = [np.zeros_like(self.weight), np.zeros_like(self.bias)]
        self._grad_x_buf: np.ndarray | None = None

    def _im2col(self, x: np.ndarray) -> np.ndarray:
        """(batch*out_seq, kernel*channels) window matrix (contiguous copy)."""
        batch, seq, channels = x.shape
        out_seq = seq - self.kernel_size + 1
        stride_b, stride_s, stride_c = x.strides
        windows = np.lib.stride_tricks.as_strided(
            x,
            shape=(batch, out_seq, self.kernel_size, channels),
            strides=(stride_b, stride_s, stride_s, stride_c),
            writeable=False,
        )
        # reshape of the overlapping view materializes the im2col copy
        return windows.reshape(batch * out_seq, self.kernel_size * channels)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.shape[1] < self.kernel_size:
            pad = self.kernel_size - x.shape[1]
            x = np.pad(x, ((0, 0), (0, pad), (0, 0)))
        self._x_shape = x.shape
        batch, seq, channels = x.shape
        out_seq = seq - self.kernel_size + 1
        cols = self._im2col(x)
        self._cols = cols
        kc, filters = self.weight.size // self.weight.shape[2], self.weight.shape[2]
        out = cols @ self.weight.reshape(kc, filters)
        out += self.bias
        return out.reshape(batch, out_seq, filters)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        batch, seq, channels = self._x_shape
        out_seq = grad_out.shape[1]
        filters = self.weight.shape[2]
        g2 = grad_out.reshape(batch * out_seq, filters)
        # weight/bias gradients: one GEMM + one reduction
        self.grads[0] += (self._cols.T @ g2).reshape(self.weight.shape)
        self.grads[1] += g2.sum(axis=0)
        # input gradient: GEMM back to window space, then col2im fold
        dcols = g2 @ self.weight.reshape(-1, filters).T
        dwin = dcols.reshape(batch, out_seq, self.kernel_size, channels)
        buf = self._grad_x_buf
        if buf is None or buf.shape != self._x_shape:
            buf = np.empty(self._x_shape)
            self._grad_x_buf = buf
        # each output position o consumed input positions o..o+k-1; assign the
        # k=0 slice first so the buffer needs no zero-fill beyond the tail
        buf[:, :out_seq, :] = dwin[:, :, 0, :]
        if seq > out_seq:
            buf[:, out_seq:, :] = 0.0
        for k in range(1, self.kernel_size):
            buf[:, k : k + out_seq, :] += dwin[:, :, k, :]
        return buf


class ReLU(Layer):
    """Elementwise max(0, x)."""

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._mask = x > 0.0
        return x * self._mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out * self._mask


class GlobalMaxPool1D(Layer):
    """Max over the sequence axis of (batch, seq, channels)."""

    def __init__(self):
        super().__init__()
        self._grad_buf: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._x_shape = x.shape
        self._argmax = np.argmax(x, axis=1)
        return np.max(x, axis=1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        buf = self._grad_buf
        if buf is None or buf.shape != self._x_shape:
            buf = np.empty(self._x_shape)
            self._grad_buf = buf
        buf.fill(0.0)
        batch, _seq, channels = self._x_shape
        b_index = np.repeat(np.arange(batch), channels)
        c_index = np.tile(np.arange(channels), batch)
        buf[b_index, self._argmax.ravel(), c_index] = grad_out.ravel()
        return buf


class Dense(Layer):
    """Affine layer over (batch, features)."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
    ):
        super().__init__()
        scale = np.sqrt(2.0 / in_features)
        self.weight = rng.normal(0.0, scale, size=(in_features, out_features))
        self.bias = np.zeros(out_features)
        self.params = [self.weight, self.bias]
        self.grads = [np.zeros_like(self.weight), np.zeros_like(self.bias)]

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._x = x
        return x @ self.weight + self.bias

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        self.grads[0] += self._x.T @ grad_out
        self.grads[1] += grad_out.sum(axis=0)
        return grad_out @ self.weight.T


class Dropout(Layer):
    """Inverted dropout; identity at inference time."""

    def __init__(self, rate: float, rng: np.random.Generator):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        self.rate = rate
        self.rng = rng

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (self.rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_out
        return grad_out * self._mask
