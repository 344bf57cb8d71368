"""Tests for repro.gnn.models."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.gnn.layers import MaxPoolAggregator
from repro.gnn.models import DSSM, GraphSageEncoder


def random_features(batch, fanouts, attr_len, seed=0):
    rng = np.random.default_rng(seed)
    features = [rng.standard_normal((batch, attr_len)).astype(np.float32)]
    width = 1
    for fanout in fanouts:
        width *= fanout
        features.append(
            rng.standard_normal((batch, width, attr_len)).astype(np.float32)
        )
    return features


class TestGraphSageEncoder:
    def test_forward_shape(self):
        encoder = GraphSageEncoder(8, 16, (4, 3), seed=0)
        features = random_features(5, (4, 3), 8)
        out = encoder.forward(encoder.stack(features))
        assert out.shape == (5, 16)

    def test_one_hop(self):
        encoder = GraphSageEncoder(6, 4, (5,), seed=0)
        out = encoder.forward(encoder.stack(random_features(3, (5,), 6)))
        assert out.shape == (3, 4)

    def test_rejects_wrong_level_count(self):
        encoder = GraphSageEncoder(6, 4, (5,), seed=0)
        with pytest.raises(ConfigurationError):
            encoder.stack(random_features(3, (5, 2), 6))

    def test_rejects_wrong_width(self):
        encoder = GraphSageEncoder(6, 4, (5,), seed=0)
        features = random_features(3, (5,), 6)
        features[1] = features[1][:, :4, :]  # width 4 instead of 5
        with pytest.raises(ConfigurationError, match="width|shape"):
            encoder.stack(features)

    def test_rejects_level_batch_mismatch(self):
        """A (3, 3, 6) level under a 4-root level 0 is refused by name,
        not by NumPy (and not sliced silently inside the block)."""
        encoder = GraphSageEncoder(6, 4, (3,), seed=0)
        features = random_features(4, (3,), 6)
        features[1] = features[1][:3]
        with pytest.raises(ConfigurationError, match="batch 3, level 0 has 4"):
            encoder.stack(features)

    def test_rejects_wrong_attr_len(self):
        encoder = GraphSageEncoder(6, 4, (3, 2), seed=0)
        with pytest.raises(ConfigurationError, match=r"expected \(6,\)"):
            encoder.stack(random_features(4, (3, 2), 5))
        block = encoder.stack(random_features(4, (3, 2), 6))
        with pytest.raises(ConfigurationError, match="block"):
            encoder.forward(block[:, :5])
        with pytest.raises(ConfigurationError, match="block"):
            encoder.forward(block[:-1])

    def test_stack_is_slot_major(self):
        """Row ``s * n + p`` of level ``l`` is slot ``s`` of row ``p`` of
        level ``l - 1`` (``n`` rows)."""
        batch, fanouts = 2, (3, 2)
        encoder = GraphSageEncoder(4, 4, fanouts, seed=0)
        roots = np.array([0, 1])
        hop1 = 10 + np.arange(6).reshape(2, 3)  # root r, slot s: 10 + 3r + s
        hop2 = 100 + np.arange(12).reshape(2, 6)  # hop-1 slot j, slot t: 2j + t
        ids = encoder.stack([roots, hop1, hop2])
        level1, level2 = ids[2:8], ids[8:]
        for s in range(3):
            assert level1[s * batch : (s + 1) * batch].tolist() == hop1[:, s].tolist()
        for t in range(2):
            parents = level1 - 10  # position r * 3 + s in hop1
            want = [hop2[p // 3, (p % 3) * 2 + t] for p in parents]
            assert level2[t * 6 : (t + 1) * 6].tolist() == want

    def test_stack_commutes_with_row_gather(self):
        """Stacking node IDs then gathering rows equals gathering per
        level then stacking: the trainer gathers once, from stacked IDs."""
        rng = np.random.default_rng(5)
        table = rng.standard_normal((50, 6)).astype(np.float32)
        encoder = GraphSageEncoder(6, 4, (4, 3), seed=0)
        ids = [rng.integers(0, 50, (7,)), rng.integers(0, 50, (7, 4)),
               rng.integers(0, 50, (7, 12))]
        stacked = encoder.stack([table[level] for level in ids])
        assert stacked.tobytes() == table[encoder.stack(ids)].tobytes()

    def test_forward_backward_returns_loss(self):
        encoder = GraphSageEncoder(6, 8, (3, 2), seed=0)
        block = encoder.stack(random_features(4, (3, 2), 6))

        def grad_fn(embeddings):
            loss = float(0.5 * np.sum(embeddings**2))
            return loss, embeddings.astype(np.float32)

        embeddings, loss = encoder.forward_backward(block, grad_fn)
        assert embeddings.shape == (4, 8)
        assert loss > 0

    def test_forward_backward_matches_forward(self):
        encoder = GraphSageEncoder(6, 8, (3, 2), seed=0)
        block = encoder.stack(random_features(4, (3, 2), 6))
        reference = encoder.forward(block)

        def grad_fn(embeddings):
            return 0.0, np.zeros_like(embeddings, dtype=np.float32)

        embeddings, _loss = encoder.forward_backward(block, grad_fn)
        assert np.allclose(reference, embeddings, atol=1e-5)

    def test_training_reduces_loss(self):
        """SGD on a fixed regression target must reduce the loss."""
        encoder = GraphSageEncoder(6, 8, (3,), seed=0)
        block = encoder.stack(random_features(8, (3,), 6, seed=1))
        rng = np.random.default_rng(2)
        target = rng.standard_normal((8, 8)).astype(np.float32)
        # Encoder outputs are L2-normalized; only a normalized target
        # is reachable.
        target /= np.linalg.norm(target, axis=1, keepdims=True)

        def grad_fn(embeddings):
            diff = embeddings - target
            return float(0.5 * np.sum(diff**2)), diff

        losses = []
        for _ in range(60):
            _, loss = encoder.forward_backward(block, grad_fn)
            encoder.step(0.2)
            losses.append(loss)
        assert losses[-1] < 0.6 * losses[0]

    def test_input_gradients_available(self):
        encoder = GraphSageEncoder(6, 8, (3,), seed=0)
        block = encoder.stack(random_features(2, (3,), 6))

        def grad_fn(embeddings):
            return 0.0, np.ones_like(embeddings, dtype=np.float32)

        encoder.forward_backward(block, grad_fn)
        grads = encoder.input_gradients
        assert grads.shape == block.shape == (2 * (1 + 3), 6)
        assert np.any(grads[:2]) and np.any(grads[2:])

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            GraphSageEncoder(0, 8, (3,))
        with pytest.raises(ConfigurationError):
            GraphSageEncoder(4, 8, ())

    def test_dense_layers_enumeration(self):
        encoder = GraphSageEncoder(6, 8, (3, 2), seed=0)
        assert len(encoder.dense_layers()) == 4  # pool+combine per hop


def as_float64(denses):
    """Cast layers' parameters and gradient buffers to float64 in place."""
    for dense in denses:
        dense.weight = dense.weight.astype(np.float64)
        dense.bias = dense.bias.astype(np.float64)
        dense.grad_weight = np.zeros_like(dense.weight)
        dense.grad_bias = np.zeros_like(dense.bias)


def tied_ids(batch, fanouts, num_nodes, seed):
    """Per-level node IDs in which every neighbourhood holds a repeated
    sibling (slot 1 copies slot 0), so max-pool meets exact ties at
    every layer."""
    rng = np.random.default_rng(seed)
    levels = [rng.integers(0, num_nodes, batch)]
    width = 1
    for fanout in fanouts:
        width *= fanout
        picks = rng.integers(0, num_nodes, (batch, width // fanout, fanout))
        picks[..., 1] = picks[..., 0]
        levels.append(picks.reshape(batch, width))
    return levels


def per_level_reference(encoder, levels):
    """graphSAGE by definition on sampler-layout levels ``(batch,
    width_l, d)``: node ``j`` of level ``l`` has children ``j * f + s``
    of level ``l + 1``; layer ``k`` updates levels ``0..L-k-1``."""
    levels = [np.asarray(levels[0])[:, None]] + [np.asarray(x) for x in levels[1:]]
    for layer in encoder.layers:
        pool, combine = layer.pool, layer.combine
        reduce = np.max if layer.aggregator is MaxPoolAggregator else np.mean
        updated = []
        for level, children, fanout in zip(levels, levels[1:], encoder.fanouts):
            pooled = np.maximum(children @ pool.weight + pool.bias, 0)
            pooled = pooled.reshape(level.shape[:2] + (fanout, -1))
            joined = np.concatenate([level, reduce(pooled, axis=2)], axis=-1)
            out = np.maximum(joined @ combine.weight + combine.bias, 0)
            updated.append(out / (np.linalg.norm(out, axis=-1, keepdims=True) + 1e-12))
        levels = updated
    return levels[0][:, 0]


class TestPerLevelReference:
    @pytest.mark.parametrize("aggregator", ["max", "mean"])
    @pytest.mark.parametrize("fanouts", [(4,), (4, 3), (3, 2, 2)])
    def test_forward_matches(self, aggregator, fanouts):
        encoder = GraphSageEncoder(6, 5, fanouts, aggregator=aggregator, seed=4)
        as_float64(encoder.dense_layers())
        levels = [
            level.astype(np.float64)
            for level in random_features(3, fanouts, 6, seed=len(fanouts))
        ]
        np.testing.assert_allclose(
            encoder.forward(encoder.stack(levels)),
            per_level_reference(encoder, levels),
            rtol=1e-12,
            atol=1e-12,
        )


class TestEncoderGradients:
    """Central differences in float64 through whole encoders. Input rows
    are gathered from a node table, as in training: a tie between two
    occurrences of one node is a kink for either occurrence alone but
    not for the node, whose gradient is the sum over its occurrences
    (the first maximal slot takes the whole column, the tie none)."""

    EPS = 1e-6

    @pytest.mark.parametrize("aggregator", ["max", "mean"])
    @pytest.mark.parametrize("fanouts", [(3,), (3, 2), (2, 2, 2)])
    def test_matches_central_differences(self, aggregator, fanouts):
        encoder = GraphSageEncoder(4, 5, fanouts, aggregator=aggregator, seed=2)
        as_float64(encoder.dense_layers())
        rng = np.random.default_rng(len(fanouts))
        table = rng.standard_normal((12, 4))
        ids = encoder.stack(tied_ids(3, fanouts, 12, seed=len(fanouts)))
        hop1 = ids[3 : 3 + 3 * fanouts[0]].reshape(fanouts[0], 3)  # (slot, root)
        assert np.array_equal(hop1[0], hop1[1])  # the tie is really there
        target = rng.standard_normal((3, 5))

        def loss():
            return float(np.sum((encoder.forward(table[ids]) - target) ** 2))

        def grad_fn(embeddings):
            return loss(), 2 * (embeddings - target)

        encoder.forward_backward(table[ids], grad_fn)
        table_grad = np.zeros_like(table)
        np.add.at(table_grad, ids, encoder.input_gradients)
        checks = [(table, table_grad)] + [
            (param, grad)
            for dense in encoder.dense_layers()
            for param, grad in (
                (dense.weight, dense.grad_weight),
                (dense.bias, dense.grad_bias),
            )
        ]
        for param, analytic in checks:
            numeric = np.zeros_like(param)
            for index in np.ndindex(param.shape):
                original = param[index]
                param[index] = original + self.EPS
                plus = loss()
                param[index] = original - self.EPS
                minus = loss()
                param[index] = original
                numeric[index] = (plus - minus) / (2 * self.EPS)
            np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-7)


class TestDSSM:
    def test_forward_shape(self):
        model = DSSM(16, (8, 8), seed=0)
        rng = np.random.default_rng(0)
        query = rng.standard_normal((4, 16)).astype(np.float32)
        items = rng.standard_normal((4, 11, 16)).astype(np.float32)
        scores = model.forward(query, items)
        assert scores.shape == (4, 11)

    def test_backward_shapes(self):
        model = DSSM(16, (8,), seed=0)
        rng = np.random.default_rng(0)
        query = rng.standard_normal((3, 16)).astype(np.float32)
        items = rng.standard_normal((3, 5, 16)).astype(np.float32)
        model.forward(query, items)
        grad_q, grad_i = model.backward(np.ones((3, 5), dtype=np.float32))
        assert grad_q.shape == query.shape
        assert grad_i.shape == items.shape

    def test_training_separates_positive(self):
        """Softmax-CE training must rank the positive above negatives."""
        from repro.gnn.train import link_prediction_loss

        rng = np.random.default_rng(1)
        model = DSSM(8, (8, 8), seed=1)
        query = rng.standard_normal((16, 8)).astype(np.float32)
        positive = query + 0.1 * rng.standard_normal((16, 1, 8)).astype(np.float32)
        negatives = rng.standard_normal((16, 5, 8)).astype(np.float32)
        items = np.concatenate([positive, negatives], axis=1).astype(np.float32)
        first_loss = None
        for _ in range(60):
            scores = model.forward(query, items)
            loss, grad = link_prediction_loss(scores)
            if first_loss is None:
                first_loss = loss
            model.backward(grad)
            model.step(0.1)
        assert loss < first_loss
        scores = model.forward(query, items)
        hits = np.mean(scores.argmax(axis=1) == 0)
        assert hits > 0.8

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DSSM(0)
        with pytest.raises(ConfigurationError):
            DSSM(8, ())
