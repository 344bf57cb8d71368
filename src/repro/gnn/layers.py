"""Neural-network layers for mini-batch GNN compute (NumPy).

Implements the Aggregate/Combine formulation of Section 2.1:

    a_v^k = Aggregate(h_u^{k-1} : u in S(v) + v)
    h_v^k = Combine(a_v^k)

with the graphSAGE family of aggregators. Forward and backward passes
are hand-written; parameters update with SGD. Shapes follow the sampled
mini-batch layout: hop-``k`` activations have shape
``(batch, width_k, dim)`` where ``width_k`` is the product of fanouts.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.framework.kernels import NUMPY_KERNELS


def segment_sum(
    values: np.ndarray, segment_ids: np.ndarray, num_segments: int
) -> np.ndarray:
    """Sum ``values`` rows into ``num_segments`` buckets by ``segment_ids``.

    The vectorized neighbor-aggregation primitive (``np.add.at`` is an
    unbuffered scatter-add, so duplicate segment IDs accumulate —
    unlike plain fancy-index assignment which silently drops them).
    Row ``i`` of the result is ``sum(values[segment_ids == i])``; empty
    segments are zero. Validation runs here; the reduction is
    :meth:`repro.framework.kernels.NumpyKernels.segment_sum`.
    """
    values = np.asarray(values)
    segment_ids = np.asarray(segment_ids, dtype=np.int64).reshape(-1)
    if segment_ids.size != values.shape[0]:
        raise ConfigurationError(
            f"{segment_ids.size} segment ids for {values.shape[0]} rows"
        )
    if segment_ids.size and (
        segment_ids.min() < 0 or segment_ids.max() >= num_segments
    ):
        raise ConfigurationError("segment ids outside [0, num_segments)")
    return NUMPY_KERNELS.segment_sum(values, segment_ids, num_segments)


def segment_mean(
    values: np.ndarray, segment_ids: np.ndarray, num_segments: int
) -> np.ndarray:
    """Per-segment mean of ``values`` rows; empty segments are zero."""
    totals = segment_sum(values, segment_ids, num_segments)
    counts = np.bincount(
        np.asarray(segment_ids, dtype=np.int64).reshape(-1),
        minlength=num_segments,
    )
    counts = counts.reshape((num_segments,) + (1,) * (totals.ndim - 1))
    return np.divide(
        totals,
        counts,
        out=np.zeros_like(totals, dtype=np.result_type(totals, np.float32)),
        where=counts > 0,
    )


def ragged_segment_sum(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Sum contiguous ragged segments: row ``i`` covers
    ``values[offsets[i]:offsets[i + 1]]``.

    The CSR-adjacency form of :func:`segment_sum` (one reduction per
    neighborhood, as produced by
    :meth:`~repro.memstore.store.PartitionedStore.get_neighbors_batch`),
    computed in one ``np.add.reduceat`` sweep. Empty segments are zero.
    """
    values = np.asarray(values)
    offsets = np.asarray(offsets, dtype=np.int64).reshape(-1)
    if offsets.size < 1 or offsets[0] != 0 or offsets[-1] != values.shape[0]:
        raise ConfigurationError(
            "offsets must run from 0 to len(values) inclusive"
        )
    if np.any(np.diff(offsets) < 0):
        raise ConfigurationError("offsets must be non-decreasing")
    return NUMPY_KERNELS.ragged_segment_sum(values, offsets)


def relu(x: np.ndarray) -> np.ndarray:
    """Elementwise rectifier."""
    return np.maximum(x, 0.0)


def relu_grad(x: np.ndarray) -> np.ndarray:
    """Derivative of :func:`relu` evaluated at pre-activation ``x``."""
    return (x > 0.0).astype(x.dtype)


class Dense:
    """Fully connected layer ``y = act(x @ W + b)``."""

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        activation: str = "relu",
        seed: int = 0,
    ) -> None:
        if in_dim <= 0 or out_dim <= 0:
            raise ConfigurationError("layer dimensions must be positive")
        if activation not in ("relu", "linear"):
            raise ConfigurationError(f"unsupported activation {activation!r}")
        rng = np.random.default_rng(seed)
        limit = np.sqrt(6.0 / (in_dim + out_dim))
        self.weight = rng.uniform(-limit, limit, size=(in_dim, out_dim)).astype(
            np.float32
        )
        self.bias = np.zeros(out_dim, dtype=np.float32)
        self.activation = activation
        #: What the last forward left for backward: ``(x, pre)``.
        self.saved: Tuple[np.ndarray, np.ndarray] = (
            np.empty(0, dtype=np.float32),
            np.empty(0, dtype=np.float32),
        )
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)

    @property
    def in_dim(self) -> int:
        return self.weight.shape[0]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[1]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Forward pass; caches activations for backward."""
        pre = x @ self.weight + self.bias
        self.saved = (x, pre)
        if self.activation == "relu":
            return relu(pre)
        return pre

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Backward pass; accumulates parameter grads, returns grad wrt x."""
        x, pre = self.saved
        if self.activation == "relu":
            grad_out = grad_out * relu_grad(pre)
        flat_x = x.reshape(-1, self.in_dim)
        flat_g = grad_out.reshape(-1, self.out_dim)
        self.grad_weight += flat_x.T @ flat_g
        self.grad_bias += flat_g.sum(axis=0)
        return grad_out @ self.weight.T

    def step(self, lr: float) -> None:
        """SGD update and gradient reset."""
        self.weight -= lr * self.grad_weight
        self.bias -= lr * self.grad_bias
        self.zero_grad()

    def zero_grad(self) -> None:
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)

    def parameters(self) -> Dict[str, np.ndarray]:
        return {"weight": self.weight, "bias": self.bias}


class MeanAggregator:
    """Mean over the neighbor axis."""

    def forward(self, neighbors: np.ndarray) -> np.ndarray:
        """``neighbors``: (batch, groups, fanout, dim) -> (batch, groups, dim)."""
        self.saved = neighbors.shape[-2]
        return neighbors.mean(axis=-2)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        fanout = self.saved
        expanded = np.expand_dims(grad_out / fanout, axis=-2)
        return np.broadcast_to(
            expanded, grad_out.shape[:-1] + (fanout, grad_out.shape[-1])
        ).copy()


class MaxPoolAggregator:
    """Elementwise max over the neighbor axis (graphSAGE-max)."""

    def forward(self, neighbors: np.ndarray) -> np.ndarray:
        out = neighbors.max(axis=-2)
        self.saved = (neighbors, out)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        # Route gradient to the (first) argmax along the neighbor axis.
        # ``is_max.argmax`` is a column's first True slot, or 0 in a
        # column with none (its max is NaN); ANDing with ``is_max``
        # keeps such columns gradient-free.
        neighbors, out = self.saved
        is_max = neighbors == np.expand_dims(out, axis=-2)
        first = is_max.argmax(axis=-2)[..., None, :]
        slots = np.arange(neighbors.shape[-2])[:, None]
        mask = (is_max & (slots == first)).astype(grad_out.dtype)
        return mask * np.expand_dims(grad_out, axis=-2)


_AGGREGATORS = {"mean": MeanAggregator, "max": MaxPoolAggregator}


class SageLayer:
    """One graphSAGE layer: transform neighbors, aggregate, combine.

    ``h_v' = relu(W_combine @ concat(h_v, Agg(relu(W_pool @ h_u))))``
    followed by L2 normalization (as in the original graphSAGE).

    :meth:`forward` leaves everything :meth:`backward` needs in
    ``saved``, one record. A caller that runs the layer at several
    levels before backpropagating any of them (the encoder) keeps each
    forward's record and assigns it back to ``saved`` before that
    level's backward, instead of re-running the forward.
    """

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        aggregator: str = "max",
        normalize: bool = True,
        seed: int = 0,
    ) -> None:
        if aggregator not in _AGGREGATORS:
            raise ConfigurationError(
                f"unknown aggregator {aggregator!r}; expected one of "
                f"{sorted(_AGGREGATORS)}"
            )
        self.pool = Dense(in_dim, out_dim, activation="relu", seed=seed)
        self.combine = Dense(in_dim + out_dim, out_dim, activation="relu", seed=seed + 1)
        self.aggregator = _AGGREGATORS[aggregator]()
        self.normalize = normalize

    def forward(self, self_feats: np.ndarray, neighbor_feats: np.ndarray) -> np.ndarray:
        """Forward one hop.

        ``self_feats``: (batch, groups, dim_in)
        ``neighbor_feats``: (batch, groups, fanout, dim_in)
        Returns (batch, groups, dim_out).
        """
        pooled = self.pool.forward(neighbor_feats)
        aggregated = self.aggregator.forward(pooled)
        out = self.combine.forward(
            np.concatenate([self_feats, aggregated], axis=-1)
        )
        norm = None
        if self.normalize:
            norm = np.linalg.norm(out, axis=-1, keepdims=True) + 1e-12
            out = out / norm
        self.saved = (
            self.pool.saved,
            self.aggregator.saved,
            self.combine.saved,
            norm,
            out,
        )
        return out

    def backward(self, grad_out: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Backward one hop; returns (grad_self, grad_neighbors)."""
        # Hand the parts their records back: a no-op straight after
        # forward, the restore when the caller re-installed ``saved``.
        (
            self.pool.saved,
            self.aggregator.saved,
            self.combine.saved,
            norm,
            normed,
        ) = self.saved
        if self.normalize:
            # d(x/||x||) = (I - nn^T)/||x|| applied to grad
            dot = np.sum(grad_out * normed, axis=-1, keepdims=True)
            grad_out = (grad_out - normed * dot) / norm
        grad_concat = self.combine.backward(grad_out)
        split = self.pool.in_dim
        grad_self = grad_concat[..., :split]
        grad_agg = grad_concat[..., split:]
        grad_pooled = self.aggregator.backward(grad_agg)
        grad_neighbors = self.pool.backward(grad_pooled)
        return grad_self, grad_neighbors

    def step(self, lr: float) -> None:
        self.pool.step(lr)
        self.combine.step(lr)

    def layers(self) -> List[Dense]:
        return [self.pool, self.combine]
