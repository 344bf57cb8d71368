"""Tests for repro.gnn.layers, including gradient checks."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.gnn.layers import (
    Dense,
    MaxPoolAggregator,
    MeanAggregator,
    SageLayer,
    relu,
    relu_grad,
)


def numerical_gradient(f, x, eps=1e-4):
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = f()
        flat[i] = original - eps
        minus = f()
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * eps)
    return grad


class TestActivations:
    def test_relu(self):
        assert relu(np.array([-1.0, 0.0, 2.0])).tolist() == [0.0, 0.0, 2.0]

    def test_relu_grad(self):
        assert relu_grad(np.array([-1.0, 0.5])).tolist() == [0.0, 1.0]


class TestDense:
    def test_forward_shape(self):
        layer = Dense(4, 3, seed=0)
        out = layer.forward(np.zeros((5, 4), dtype=np.float32))
        assert out.shape == (5, 3)

    def test_linear_forward_value(self):
        layer = Dense(2, 2, activation="linear", seed=0)
        layer.weight = np.eye(2, dtype=np.float32)
        layer.bias = np.array([1.0, -1.0], dtype=np.float32)
        out = layer.forward(np.array([[2.0, 3.0]], dtype=np.float32))
        assert out.tolist() == [[3.0, 2.0]]

    def test_weight_gradient_matches_numerical(self):
        rng = np.random.default_rng(0)
        layer = Dense(3, 2, activation="relu", seed=1)
        x = rng.standard_normal((4, 3)).astype(np.float32)
        target = rng.standard_normal((4, 2)).astype(np.float32)

        def loss():
            out = layer.forward(x)
            return float(0.5 * np.sum((out - target) ** 2))

        out = layer.forward(x)
        layer.zero_grad()
        layer.backward(out - target)
        numeric = numerical_gradient(loss, layer.weight)
        assert np.allclose(layer.grad_weight, numeric, atol=1e-2)

    def test_input_gradient_matches_numerical(self):
        rng = np.random.default_rng(1)
        layer = Dense(3, 2, activation="relu", seed=2)
        x = rng.standard_normal((2, 3)).astype(np.float32)
        target = rng.standard_normal((2, 2)).astype(np.float32)

        def loss():
            return float(0.5 * np.sum((layer.forward(x) - target) ** 2))

        out = layer.forward(x)
        grad_x = layer.backward(out - target)
        numeric = numerical_gradient(loss, x)
        assert np.allclose(grad_x, numeric, atol=1e-2)

    def test_step_applies_and_resets(self):
        layer = Dense(2, 2, seed=0)
        layer.grad_weight = np.ones_like(layer.weight)
        before = layer.weight.copy()
        layer.step(0.1)
        assert np.allclose(layer.weight, before - 0.1)
        assert np.allclose(layer.grad_weight, 0)

    def test_3d_input(self):
        layer = Dense(4, 3, seed=0)
        out = layer.forward(np.zeros((2, 5, 4), dtype=np.float32))
        assert out.shape == (2, 5, 3)
        grad = layer.backward(np.ones((2, 5, 3), dtype=np.float32))
        assert grad.shape == (2, 5, 4)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Dense(0, 2)
        with pytest.raises(ConfigurationError):
            Dense(2, 2, activation="tanh")


class TestAggregators:
    """Aggregators reduce the leading (slot) axis of a slot-major
    ``(fanout, parents, dim)`` level."""

    def test_mean_forward(self):
        x = np.array([[[1.0, 2.0]], [[3.0, 4.0]]])  # (2 slots, 1, 2)
        assert MeanAggregator.forward(x).tolist() == [[2.0, 3.0]]

    def test_mean_backward_spreads(self):
        x = np.ones((4, 1, 2))
        out = MeanAggregator.forward(x)
        grad = MeanAggregator.backward(x, out, np.ones((1, 2)))
        assert grad.shape == x.shape
        assert np.allclose(grad, 0.25)

    def test_max_forward(self):
        x = np.array([[[1.0, 5.0]], [[3.0, 4.0]]])
        assert MaxPoolAggregator.forward(x).tolist() == [[3.0, 5.0]]

    def test_max_backward_routes_to_argmax(self):
        x = np.array([[[1.0, 5.0]], [[3.0, 4.0]]])
        out = MaxPoolAggregator.forward(x)
        grad = MaxPoolAggregator.backward(x, out, np.array([[1.0, 1.0]]))
        assert grad.tolist() == [[[0.0, 1.0]], [[1.0, 0.0]]]

    def test_max_backward_ties_pick_first(self):
        x = np.array([[[2.0]], [[2.0]]])
        out = MaxPoolAggregator.forward(x)
        grad = MaxPoolAggregator.backward(x, out, np.array([[1.0]]))
        assert grad.reshape(-1).tolist() == [1.0, 0.0]

    @pytest.mark.parametrize("kind", ["relu_zeros", "signed_zeros", "nan"])
    def test_max_backward_bytes_match_cumsum_mask(self, kind):
        """The per-slot mask is the first-max mask byte for byte, on the
        inputs where the two could part: ReLU-zero ties, -0.0 beside
        +0.0, and NaN (no slot equals a NaN max: no gradient)."""
        rng = np.random.default_rng(3)
        shape = (4, 15, 6)
        x = rng.standard_normal(shape).astype(np.float32)
        if kind == "relu_zeros":
            x = np.maximum(x, 0.0)
        elif kind == "signed_zeros":
            x = np.where(rng.random(shape) < 0.5, -0.0, 0.0).astype(np.float32)
            x[rng.random(shape) < 0.2] = 1.0
        else:
            x[rng.random(shape) < 0.2] = np.nan
        grad_out = rng.standard_normal((15, 6)).astype(np.float32)
        out = MaxPoolAggregator.forward(x)
        is_max = x == out
        first_max = np.cumsum(is_max, axis=0) == 1
        want = (is_max & first_max).astype(np.float32) * grad_out
        got = MaxPoolAggregator.backward(x, out, grad_out)
        assert got.tobytes() == want.tobytes()


def sage_block(rng, parents, fanouts, dim):
    """A slot-major block with ``parents`` level-0 rows and its sizes."""
    sizes = [parents]
    for fanout in fanouts:
        sizes.append(sizes[-1] * fanout)
    block = rng.standard_normal((sum(sizes), dim)).astype(np.float32)
    return block, sizes


class TestSageLayer:
    def test_forward_shape(self):
        layer = SageLayer(6, 4, seed=0)
        block, sizes = sage_block(np.random.default_rng(0), 3, (5,), 6)
        assert layer.forward(block, sizes).shape == (3, 4)
        block, sizes = sage_block(np.random.default_rng(0), 2, (3, 2), 6)
        assert layer.forward(block, sizes).shape == (2 + 6, 4)

    def test_output_is_normalized(self):
        layer = SageLayer(6, 4, seed=0)
        block, sizes = sage_block(np.random.default_rng(0), 6, (5,), 6)
        out = layer.forward(block, sizes)
        norms = np.linalg.norm(out, axis=-1)
        assert np.all((norms < 1.0 + 1e-5) & ((norms > 0.99) | (norms < 1e-6)))

    def test_backward_shapes(self):
        layer = SageLayer(6, 4, aggregator="mean", seed=0)
        block, sizes = sage_block(np.random.default_rng(0), 2, (3, 5), 6)
        out = layer.forward(block, sizes)
        grad = layer.backward(np.ones_like(out))
        assert grad.shape == block.shape

    def test_input_gradient_numerical(self):
        rng = np.random.default_rng(3)
        layer = SageLayer(3, 2, aggregator="mean", normalize=False, seed=1)
        block, sizes = sage_block(rng, 1, (2,), 3)

        def loss():
            return float(layer.forward(block, sizes).sum())

        layer.forward(block, sizes)
        grad = layer.backward(np.ones((1, 2), dtype=np.float32))
        numeric = numerical_gradient(loss, block)
        assert np.allclose(grad, numeric, atol=1e-2)

    def test_unknown_aggregator(self):
        with pytest.raises(ConfigurationError):
            SageLayer(4, 4, aggregator="median")
