"""Mini-batch training losses.

Multi-label sigmoid cross-entropy for node classification and
sampled-softmax for link prediction, each in a float64 form and a
float32-boundary form. The trainer that uses them is
:class:`repro.gnn.pipeline.PipelinedTrainer`.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import ConfigurationError


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
