"""Mini-batch training: losses and a supervised trainer.

The trainer reproduces the 2-step LSD-GNN workflow at small scale:
sample a mini-batch neighborhood with the framework sampler, then run
dense NN compute on it. It is used by the examples and by the
streaming-vs-uniform sampler accuracy-parity experiment (Tech-2).
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.framework.requests import SampleRequest
from repro.framework.sampler import MultiHopSampler
from repro.gnn.layers import Dense
from repro.gnn.metrics import micro_f1
from repro.gnn.models import GraphSageEncoder


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[~positive])
    out[~positive] = exp_x / (1.0 + exp_x)
    return out


def multilabel_loss64(
    logits: np.ndarray, labels: np.ndarray
) -> Tuple[float, np.ndarray]:
    """:func:`multilabel_loss` with the gradient left in float64.

    Every intermediate (sigmoid, log, mean, the gradient itself) stays
    in float64; callers that feed deterministic float32 accumulators
    (the pipelined trainer's embedding scatter-add) take this form and
    cast exactly once, at their own boundary.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if logits.shape != labels.shape:
        raise ConfigurationError(
            f"shape mismatch: logits {logits.shape} vs labels {labels.shape}"
        )
    probs = _sigmoid(logits)
    eps = 1e-12
    loss = -np.mean(
        labels * np.log(probs + eps) + (1 - labels) * np.log(1 - probs + eps)
    )
    grad = (probs - labels) / logits.size
    return float(loss), grad


def multilabel_loss(
    logits: np.ndarray, labels: np.ndarray
) -> Tuple[float, np.ndarray]:
    """Mean sigmoid binary cross-entropy; returns (loss, grad_logits).

    The gradient is computed in float64 end-to-end and cast to float32
    exactly once, here at the public boundary — the historical float32
    values are pinned by regression test.
    """
    loss, grad = multilabel_loss64(logits, labels)
    return loss, grad.astype(np.float32)


def link_prediction_loss64(scores: np.ndarray) -> Tuple[float, np.ndarray]:
    """:func:`link_prediction_loss` with the gradient left in float64."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or scores.shape[1] < 2:
        raise ConfigurationError("scores must be (batch, 1 + num_negatives)")
    shifted = scores - scores.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    loss = float(np.mean(-np.log(probs[:, 0] + 1e-12)))
    grad = probs.copy()
    grad[:, 0] -= 1.0
    grad /= scores.shape[0]
    return loss, grad


def link_prediction_loss(scores: np.ndarray) -> Tuple[float, np.ndarray]:
    """Sampled-softmax loss: column 0 is the positive pair's score,
    remaining columns are negatives. Returns (loss, grad_scores).

    Float64 internally (:func:`link_prediction_loss64`), cast to
    float32 once at this boundary.
    """
    loss, grad = link_prediction_loss64(scores)
    return loss, grad.astype(np.float32)


class Trainer:
    """Supervised multi-label node classification (PPI-style).

    Wires a :class:`MultiHopSampler`, a :class:`GraphSageEncoder`, and a
    linear classification head. Used to demonstrate that the streaming
    sampler reaches the same accuracy as uniform sampling.
    """

    def __init__(
        self,
        sampler: MultiHopSampler,
        encoder: GraphSageEncoder,
        num_labels: int,
        lr: float = 0.05,
        seed: int = 0,
    ) -> None:
        if num_labels <= 0:
            raise ConfigurationError(f"num_labels must be positive, got {num_labels}")
        if lr <= 0:
            raise ConfigurationError(f"lr must be positive, got {lr}")
        self.sampler = sampler
        self.encoder = encoder
        hidden = encoder.layers[-1].combine.out_dim
        self.head = Dense(hidden, num_labels, activation="linear", seed=seed)
        self.lr = lr

    def _sample_features(self, roots: np.ndarray):
        request = SampleRequest(
            roots=roots, fanouts=self.encoder.fanouts, with_attributes=True
        )
        return self.encoder.stack(self.sampler.sample(request).attributes)

    def train_step(self, roots: np.ndarray, labels: np.ndarray) -> float:
        """One SGD step; returns the batch loss."""
        features = self._sample_features(np.asarray(roots, dtype=np.int64))
        labels = np.asarray(labels, dtype=np.float32)

        def grad_fn(embeddings: np.ndarray):
            logits = self.head.forward(embeddings)
            loss, grad_logits = multilabel_loss(logits, labels)
            grad_emb = self.head.backward(grad_logits)
            return loss, grad_emb

        _, loss = self.encoder.forward_backward(features, grad_fn)
        self.head.step(self.lr)
        self.encoder.step(self.lr)
        return loss

    def predict(self, roots: np.ndarray) -> np.ndarray:
        """Binary multi-label predictions for ``roots``."""
        features = self._sample_features(np.asarray(roots, dtype=np.int64))
        embeddings = self.encoder.forward(features)
        logits = self.head.forward(embeddings)
        return (logits > 0).astype(np.int64)

    def evaluate(self, roots: np.ndarray, labels: np.ndarray) -> float:
        """Micro-F1 on a held-out root set."""
        predictions = self.predict(roots)
        return micro_f1(predictions, np.asarray(labels, dtype=np.int64))


def train_to_convergence(
    trainer: Trainer,
    roots: np.ndarray,
    labels: np.ndarray,
    batch_size: int = 64,
    epochs: int = 5,
    rng: Optional[np.random.Generator] = None,
    on_epoch: Optional[Callable[[int, float], None]] = None,
) -> float:
    """Simple epoch loop; returns the final epoch's mean loss."""
    if rng is None:
        rng = np.random.default_rng(0)
    roots = np.asarray(roots, dtype=np.int64)
    labels = np.asarray(labels)
    mean_loss = float("nan")
    for epoch in range(epochs):
        order = rng.permutation(roots.size)
        losses = []
        for start in range(0, roots.size, batch_size):
            batch = order[start : start + batch_size]
            if batch.size == 0:
                continue
            losses.append(trainer.train_step(roots[batch], labels[batch]))
        mean_loss = float(np.mean(losses)) if losses else float("nan")
        if on_epoch is not None:
            on_epoch(epoch, mean_loss)
    return mean_loss
