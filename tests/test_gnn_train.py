"""Tests for repro.gnn.train's losses, and for the one trainer on the
attribute feature source (the graphSAGE classifier of Section 5)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.graph.csr import CSRGraph
from repro.graph.generators import power_law_graph
from repro.graph.partition import HashPartitioner
from repro.gnn.pipeline import PipelinedTrainer
from repro.gnn.train import (
    link_prediction_loss,
    link_prediction_loss64,
    multilabel_loss,
    multilabel_loss64,
)
from repro.memstore.store import PartitionedStore


class TestMultilabelLoss:
    def test_perfect_prediction_low_loss(self):
        logits = np.array([[10.0, -10.0]])
        labels = np.array([[1.0, 0.0]])
        loss, grad = multilabel_loss(logits, labels)
        assert loss < 0.01
        assert np.abs(grad).max() < 0.01

    def test_wrong_prediction_high_loss(self):
        logits = np.array([[-10.0, 10.0]])
        labels = np.array([[1.0, 0.0]])
        loss, _ = multilabel_loss(logits, labels)
        assert loss > 5

    def test_gradient_direction(self):
        logits = np.array([[0.0]])
        labels = np.array([[1.0]])
        _, grad = multilabel_loss(logits, labels)
        assert grad[0, 0] < 0  # push logit up

    def test_gradient_matches_numerical(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((3, 4))
        labels = rng.integers(0, 2, (3, 4)).astype(float)
        _, grad = multilabel_loss(logits, labels)
        eps = 1e-5
        for i in (0, 1):
            for j in (0, 2):
                bumped = logits.copy()
                bumped[i, j] += eps
                plus, _ = multilabel_loss(bumped, labels)
                bumped[i, j] -= 2 * eps
                minus, _ = multilabel_loss(bumped, labels)
                assert grad[i, j] == pytest.approx(
                    (plus - minus) / (2 * eps), abs=1e-4
                )

    def test_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            multilabel_loss(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_extreme_logits_stable(self):
        loss, grad = multilabel_loss(
            np.array([[1000.0, -1000.0]]), np.array([[1.0, 0.0]])
        )
        assert np.isfinite(loss) and np.isfinite(grad).all()


class TestLinkPredictionLoss:
    def test_positive_best_low_loss(self):
        scores = np.array([[5.0, -1.0, -1.0]])
        loss, _ = link_prediction_loss(scores)
        assert loss < 0.01

    def test_grad_sums_to_zero_per_row(self):
        scores = np.array([[1.0, 2.0, 0.5], [0.0, 0.0, 0.0]])
        _, grad = link_prediction_loss(scores)
        assert np.allclose(grad.sum(axis=1), 0, atol=1e-6)

    def test_positive_grad_negative(self):
        scores = np.array([[0.0, 0.0, 0.0]])
        _, grad = link_prediction_loss(scores)
        assert grad[0, 0] < 0
        assert (grad[0, 1:] > 0).all()

    def test_rejects_single_column(self):
        with pytest.raises(ConfigurationError):
            link_prediction_loss(np.zeros((2, 1)))


class TestLossPrecisionBoundary:
    """The float64-internal refactor must not move the public float32
    values: these pins are the historical outputs."""

    def _inputs(self):
        rng = np.random.default_rng(42)
        logits = rng.standard_normal((4, 3)) * 3.0
        labels = rng.integers(0, 2, (4, 3)).astype(np.float64)
        scores = rng.standard_normal((3, 4)) * 2.0
        return logits, labels, scores

    def test_multilabel_pinned_values(self):
        logits, labels, _ = self._inputs()
        loss, grad = multilabel_loss(logits, labels)
        assert loss == 1.5677294507350439
        assert grad.dtype == np.float32
        assert grad[0, 0] == np.float32(-0.02384592592716217)
        assert grad[3, 2] == np.float32(0.075966976583004)

    def test_link_prediction_pinned_values(self):
        _, _, scores = self._inputs()
        loss, grad = link_prediction_loss(scores)
        assert loss == 0.5370804387792235
        assert grad.dtype == np.float32
        assert grad[0, 0] == np.float32(-0.08073727786540985)
        assert grad[2, 3] == np.float32(0.08196156471967697)

    def test_float64_internals_cast_once(self):
        """The public grads are exactly the float64 grads cast once."""
        logits, labels, scores = self._inputs()
        loss64, grad64 = multilabel_loss64(logits, labels)
        loss32, grad32 = multilabel_loss(logits, labels)
        assert grad64.dtype == np.float64
        assert loss64 == loss32
        assert np.array_equal(grad64.astype(np.float32), grad32)
        lloss64, lgrad64 = link_prediction_loss64(scores)
        lloss32, lgrad32 = link_prediction_loss(scores)
        assert lgrad64.dtype == np.float64
        assert lloss64 == lloss32
        assert np.array_equal(lgrad64.astype(np.float32), lgrad32)

    def test_large_batch_precision(self):
        """Float64 accumulation keeps the mean stable on large batches
        (the double-cast used to lose precision here)."""
        rng = np.random.default_rng(7)
        logits = rng.standard_normal((200_000, 2))
        labels = rng.integers(0, 2, (200_000, 2)).astype(np.float64)
        loss, grad = multilabel_loss(logits, labels)
        loss64, grad64 = multilabel_loss64(logits, labels)
        assert loss == loss64
        assert np.array_equal(grad, grad64.astype(np.float32))

    def test_float64_validation_matches_public(self):
        with pytest.raises(ConfigurationError):
            multilabel_loss64(np.zeros((2, 2)), np.zeros((2, 3)))
        with pytest.raises(ConfigurationError):
            link_prediction_loss64(np.zeros((2, 1)))


def _make_learnable_task(num_nodes=300, num_labels=4, seed=0):
    """A label-homophilous graph: labels derive from a community id,
    and edges stay mostly within communities, so 1-hop GraphSAGE can
    learn the mapping."""
    rng = np.random.default_rng(seed)
    communities = rng.integers(0, num_labels, num_nodes)
    # attributes carry a noisy one-hot of the community
    attrs = np.eye(num_labels, dtype=np.float32)[communities]
    attrs = attrs + 0.3 * rng.standard_normal(attrs.shape).astype(np.float32)
    edges = []
    for node in range(num_nodes):
        same = np.flatnonzero(communities == communities[node])
        for _ in range(5):
            edges.append((node, int(rng.choice(same))))
    graph = CSRGraph.from_edges(num_nodes, edges, node_attr=attrs)
    labels = np.eye(num_labels, dtype=np.int64)[communities]
    return graph, labels


def _attribute_trainer(graph, labels, seed=0, **options):
    """The one trainer on store attributes, one-hop fanout 5, dims 16."""
    return PipelinedTrainer(
        PartitionedStore(graph, HashPartitioner(2)),
        labels,
        (5,),
        hidden_dim=16,
        seed=seed,
        batch_size=64,
        **{"features": "attributes", **options},
    )


class TestTrainer:
    def test_loss_decreases(self):
        graph, labels = _make_learnable_task()
        with _attribute_trainer(graph, labels, lr=0.1) as trainer:
            report = trainer.train(np.arange(64), epochs=21)
        assert report.epoch_losses[-1] < report.epoch_losses[0]

    def test_learns_better_than_chance(self):
        graph, labels = _make_learnable_task(seed=1)
        roots = np.arange(graph.num_nodes)
        with _attribute_trainer(graph, labels, seed=1, lr=3.0) as trainer:
            trainer.train(roots[:200], epochs=4)
            f1 = trainer.evaluate(roots[200:])
        assert f1 > 0.8

    def test_predict_shape(self):
        graph, labels = _make_learnable_task()
        with _attribute_trainer(graph, labels) as trainer:
            predictions = trainer.predict(np.arange(10))
            embeddings = trainer.embed(np.arange(10))
        assert predictions.shape == (10, 4)
        assert set(np.unique(predictions)) <= {0, 1}
        assert embeddings.shape == (10, 16)

    def test_validation(self):
        graph, labels = _make_learnable_task()
        with pytest.raises(ConfigurationError, match="features"):
            _attribute_trainer(graph, labels, features="attribute")
        with pytest.raises(ConfigurationError, match="lr"):
            _attribute_trainer(graph, labels, lr=0)
        bare = power_law_graph(graph.num_nodes, 3.0, attr_len=0, seed=0)
        with pytest.raises(ConfigurationError, match="node attributes"):
            _attribute_trainer(bare, labels)
