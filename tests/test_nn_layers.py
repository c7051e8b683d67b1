"""Gradient checks and behavioural tests for the numpy NN layers."""

import numpy as np
import pytest

from repro.nn.encoding import PAD_CODE, UNK_CODE, VOCAB_SIZE, encode_batch, encode_text
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


def numeric_gradient(loss_fn, param, eps=1e-5, max_checks=8, skip_rows=()):
    """Central finite differences on a handful of entries."""
    checks = []
    it = np.nditer(param, flags=["multi_index"])
    while not it.finished and len(checks) < max_checks:
        idx = it.multi_index
        if idx[0] in skip_rows:
            it.iternext()
            continue
        old = param[idx]
        param[idx] = old + eps
        up = loss_fn()
        param[idx] = old - eps
        down = loss_fn()
        param[idx] = old
        checks.append((idx, (up - down) / (2 * eps)))
        it.iternext()
    return checks


@pytest.fixture()
def tiny_net(rng):
    emb = Embedding(10, 4, rng)
    conv = Conv1D(4, 3, 2, rng)
    relu = ReLU()
    pool = GlobalMaxPool1D()
    dense = Dense(3, 2, rng)
    x = rng.integers(1, 10, size=(5, 6))
    y = np.array([0, 1, 0, 1, 1])

    def forward():
        h = emb.forward(x, True)
        h = conv.forward(h, True)
        h = relu.forward(h, True)
        h = pool.forward(h, True)
        return dense.forward(h, True)

    return emb, conv, relu, pool, dense, x, y, forward


class TestGradients:
    def test_backprop_matches_finite_differences(self, tiny_net):
        emb, conv, relu, pool, dense, _x, y, forward = tiny_net

        def loss_only():
            return softmax_cross_entropy(forward(), y)[0]

        _loss, grad = softmax_cross_entropy(forward(), y)
        g = dense.backward(grad)
        g = pool.backward(g)
        g = relu.backward(g)
        g = conv.backward(g)
        emb.backward(g)

        for layer, skip in ((dense, ()), (conv, ()), (emb, (0,))):
            for param, analytic in zip(layer.params, layer.grads):
                for idx, numeric in numeric_gradient(
                    loss_only, param, skip_rows=skip
                ):
                    assert abs(numeric - analytic[idx]) < 1e-5


class TestLayers:
    def test_embedding_pad_row_frozen(self, rng):
        emb = Embedding(5, 3, rng)
        assert np.all(emb.weight[PAD_CODE] == 0.0)
        x = np.zeros((2, 4), dtype=np.int64)
        emb.forward(x, True)
        emb.backward(np.ones((2, 4, 3)))
        assert np.all(emb.grads[0][PAD_CODE] == 0.0)

    def test_conv_output_shape(self, rng):
        conv = Conv1D(4, 7, 3, rng)
        out = conv.forward(rng.normal(size=(2, 10, 4)))
        assert out.shape == (2, 8, 7)

    def test_conv_pads_short_sequences(self, rng):
        conv = Conv1D(4, 7, 5, rng)
        out = conv.forward(rng.normal(size=(2, 3, 4)))
        assert out.shape == (2, 1, 7)

    def test_relu(self):
        relu = ReLU()
        out = relu.forward(np.array([[-1.0, 2.0]]))
        assert out.tolist() == [[0.0, 2.0]]
        grad = relu.backward(np.array([[5.0, 5.0]]))
        assert grad.tolist() == [[0.0, 5.0]]

    def test_global_max_pool(self):
        pool = GlobalMaxPool1D()
        x = np.array([[[1.0, 9.0], [5.0, 2.0]]])
        assert pool.forward(x).tolist() == [[5.0, 9.0]]
        grad = pool.backward(np.array([[1.0, 1.0]]))
        assert grad[0, 1, 0] == 1.0 and grad[0, 0, 1] == 1.0

    def test_dropout_inference_identity(self, rng):
        drop = Dropout(0.5, rng)
        x = rng.normal(size=(4, 4))
        assert np.array_equal(drop.forward(x, training=False), x)

    def test_dropout_training_scales(self, rng):
        drop = Dropout(0.5, rng)
        x = np.ones((1000, 1))
        out = drop.forward(x, training=True)
        kept = out[out > 0]
        assert np.allclose(kept, 2.0)  # inverted dropout
        assert 0.35 < len(kept) / 1000 < 0.65

    def test_dropout_rate_validation(self, rng):
        with pytest.raises(ValueError):
            Dropout(1.0, rng)


def einsum_conv_reference(weight, bias, x, grad_out):
    """The retired strided-einsum Conv1D forward/backward, kept as the
    reference the im2col GEMM kernel must reproduce."""
    kernel_size = weight.shape[0]
    if x.shape[1] < kernel_size:
        pad = kernel_size - x.shape[1]
        x = np.pad(x, ((0, 0), (0, pad), (0, 0)))
    batch, seq, channels = x.shape
    out_seq = seq - kernel_size + 1
    stride_b, stride_s, stride_c = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x, shape=(batch, out_seq, kernel_size, channels),
        strides=(stride_b, stride_s, stride_s, stride_c), writeable=False,
    )
    out = np.einsum("bokc,kcf->bof", windows, weight, optimize=True) + bias
    grad_w = np.einsum("bokc,bof->kcf", windows, grad_out, optimize=True)
    grad_b = grad_out.sum(axis=(0, 1))
    grad_x = np.zeros_like(x)
    contribution = np.einsum(
        "bof,kcf->bokc", grad_out, weight, optimize=True
    )
    for k in range(kernel_size):
        grad_x[:, k : k + out_seq, :] += contribution[:, :, k, :]
    return out, grad_w, grad_b, grad_x


class TestConvIm2col:
    """The im2col GEMM kernel against the einsum reference."""

    @pytest.mark.parametrize(
        "batch,seq,channels,filters,kernel",
        [
            (1, 1, 1, 1, 1),
            (2, 10, 4, 7, 3),
            (3, 5, 2, 4, 5),   # seq == kernel
            (2, 3, 4, 7, 5),   # seq < kernel: padded path
            (5, 24, 16, 32, 2),
            (1, 7, 3, 2, 4),
        ],
    )
    def test_matches_einsum_reference(
        self, rng, batch, seq, channels, filters, kernel
    ):
        conv = Conv1D(channels, filters, kernel, rng)
        x = rng.normal(size=(batch, seq, channels))
        out_seq = max(seq, kernel) - kernel + 1
        g = rng.normal(size=(batch, out_seq, filters))
        out = conv.forward(x, training=True)
        grad_x = conv.backward(g)
        ref_out, ref_gw, ref_gb, ref_gx = einsum_conv_reference(
            conv.weight, conv.bias, x, g
        )
        # einsum may pick a different contraction order on small shapes, so
        # allow float64 roundoff; the results are numerically identical.
        assert np.allclose(out, ref_out, rtol=1e-12, atol=1e-12)
        assert np.allclose(conv.grads[0], ref_gw, rtol=1e-12, atol=1e-12)
        assert np.allclose(conv.grads[1], ref_gb, rtol=1e-12, atol=1e-12)
        assert np.allclose(grad_x, ref_gx, rtol=1e-12, atol=1e-12)

    def test_randomized_shapes(self, rng):
        for _ in range(20):
            batch = int(rng.integers(1, 6))
            seq = int(rng.integers(1, 16))
            channels = int(rng.integers(1, 8))
            filters = int(rng.integers(1, 8))
            kernel = int(rng.integers(1, 6))
            conv = Conv1D(channels, filters, kernel, rng)
            x = rng.normal(size=(batch, seq, channels))
            out_seq = max(seq, kernel) - kernel + 1
            g = rng.normal(size=(batch, out_seq, filters))
            out = conv.forward(x, training=True)
            grad_x = conv.backward(g)
            ref = einsum_conv_reference(conv.weight, conv.bias, x, g)
            assert np.allclose(out, ref[0], rtol=1e-12, atol=1e-12)
            assert np.allclose(conv.grads[0], ref[1], rtol=1e-12, atol=1e-12)
            assert np.allclose(conv.grads[1], ref[2], rtol=1e-12, atol=1e-12)
            assert np.allclose(grad_x, ref[3], rtol=1e-12, atol=1e-12)

    def test_backward_buffer_reuse_is_correct(self, rng):
        """Consecutive backward calls reuse the gradient buffer; the second
        result must not be polluted by the first."""
        conv = Conv1D(3, 5, 2, rng)
        x1 = rng.normal(size=(2, 8, 3))
        g1 = rng.normal(size=(2, 7, 5))
        conv.forward(x1, training=True)
        first = conv.backward(g1).copy()
        conv.zero_grad()
        conv.forward(x1, training=True)
        again = conv.backward(g1)
        assert np.array_equal(first, again)
        # different shape: a fresh buffer must be allocated
        x2 = rng.normal(size=(4, 6, 3))
        g2 = rng.normal(size=(4, 5, 5))
        conv.zero_grad()
        conv.forward(x2, training=True)
        assert conv.backward(g2).shape == x2.shape

    def test_pool_buffer_reuse_is_correct(self, rng):
        pool = GlobalMaxPool1D()
        x = rng.normal(size=(3, 6, 4))
        pool.forward(x)
        g = rng.normal(size=(3, 4))
        first = pool.backward(g).copy()
        pool.forward(x)
        again = pool.backward(g)
        assert np.array_equal(first, again)
        # stale entries from the previous call must be zeroed
        assert np.count_nonzero(again) == g.size

    def test_embedding_backward_returns_none(self, rng):
        emb = Embedding(5, 3, rng)
        emb.forward(np.array([[1, 2]]), training=True)
        assert emb.backward(np.ones((1, 2, 3))) is None


class TestLossesAndOptim:
    def test_softmax_rows(self, rng):
        probs = softmax(rng.normal(size=(5, 3)))
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_cross_entropy_perfect_prediction(self):
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        loss, grad = softmax_cross_entropy(logits, np.array([0, 1]))
        assert loss < 1e-6
        assert np.abs(grad).max() < 1e-6

    def test_adam_reduces_quadratic(self):
        param = np.array([5.0])
        grad = np.zeros(1)
        optimizer = Adam([param], [grad], lr=0.1)
        for _ in range(300):
            grad[0] = 2 * param[0]
            optimizer.step()
        assert abs(param[0]) < 0.1


class TestEncoding:
    def test_shapes_and_padding(self):
        codes = encode_text("ab", 5)
        assert codes.shape == (5,)
        assert codes[2] == PAD_CODE

    def test_unknown_chars(self):
        codes = encode_text("日本", 4)
        assert codes[0] == UNK_CODE

    def test_case_insensitive(self):
        assert np.array_equal(encode_text("ABC", 3), encode_text("abc", 3))

    def test_batch(self):
        batch = encode_batch(["a", "bb"], 4)
        assert batch.shape == (2, 4)
        assert batch.max() < VOCAB_SIZE

    def test_truncation(self):
        assert encode_text("abcdef", 3).shape == (3,)
