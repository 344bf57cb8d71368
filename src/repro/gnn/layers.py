"""Neural-network layers for mini-batch GNN compute (NumPy).

Implements the Aggregate/Combine formulation of Section 2.1:

    a_v^k = Aggregate(h_u^{k-1} : u in S(v) + v)
    h_v^k = Combine(a_v^k)

with the graphSAGE family of aggregators. Forward and backward passes
are hand-written; parameters update with SGD. A :class:`SageLayer` runs
on one ``(rows, dim)`` block holding every level it sees, each level
``>= 1`` ordered *slot-major*: row ``s * n + p`` of a level is slot
``s`` of parent row ``p`` of the level above (``n`` rows), so one
level's neighbours are the contiguous ``(fanout, n, dim)`` view that
the aggregators reduce over its leading axis.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

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
    """Fully connected layer ``y = act(x @ W + b)``.

    ``grad_weight`` / ``grad_bias`` are allocated once: backward adds
    into them and :meth:`zero_grad` clears them in place.
    """

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
        pre = x @ self.weight
        pre += self.bias
        self.saved = (x, pre)
        if self.activation == "relu":
            return relu(pre)
        return pre

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Backward pass: two GEMMs, one into ``grad_weight`` and one
        for the returned gradient wrt x. The bias sum is a GEMV: a
        column ``sum`` over ~1k rows of 16 is 4-6x slower."""
        x, pre = self.saved
        if self.activation == "relu":
            grad_out = grad_out * relu_grad(pre)
        flat_g = grad_out.reshape(-1, self.out_dim)
        self.grad_weight += x.reshape(-1, self.in_dim).T @ flat_g
        self.grad_bias += np.ones(flat_g.shape[0], flat_g.dtype) @ flat_g
        return grad_out @ self.weight.T

    def step(self, lr: float) -> None:
        """SGD update and gradient reset."""
        self.weight -= lr * self.grad_weight
        self.bias -= lr * self.grad_bias
        self.zero_grad()

    def zero_grad(self) -> None:
        self.grad_weight.fill(0.0)
        self.grad_bias.fill(0.0)

    def parameters(self) -> Dict[str, np.ndarray]:
        return {"weight": self.weight, "bias": self.bias}


class MeanAggregator:
    """Mean over the slot axis of a ``(fanout, n, dim)`` level."""

    @staticmethod
    def forward(neighbors: np.ndarray) -> np.ndarray:
        return neighbors.mean(axis=0)

    @staticmethod
    def backward(
        neighbors: np.ndarray, out: np.ndarray, grad_out: np.ndarray
    ) -> np.ndarray:
        return np.broadcast_to(grad_out / neighbors.shape[0], neighbors.shape)


class MaxPoolAggregator:
    """Elementwise max over the slot axis (graphSAGE-max).

    Backward sends each column's gradient to its first maximal slot in
    sampling order; a column whose max is NaN has no slot equal to it
    and gets no gradient.
    """

    @staticmethod
    def forward(neighbors: np.ndarray) -> np.ndarray:
        return neighbors.max(axis=0)

    @staticmethod
    def backward(
        neighbors: np.ndarray, out: np.ndarray, grad_out: np.ndarray
    ) -> np.ndarray:
        is_max = neighbors == out
        taken = is_max[0].copy()
        for row in is_max[1:]:
            np.greater(row, taken, out=row)  # a max no earlier slot held
            taken |= row
        return is_max * grad_out


_AGGREGATORS = {"mean": MeanAggregator, "max": MaxPoolAggregator}


class SageLayer:
    """One graphSAGE layer: transform neighbors, aggregate, combine.

    ``h_v' = relu(W_combine @ concat(h_v, Agg(relu(W_pool @ h_u))))``
    followed by L2 normalization (as in the original graphSAGE).

    :meth:`forward` takes a slot-major block of levels ``0..m`` (``sizes``
    rows each) and returns the block of levels ``0..m-1``: one pool GEMM
    over every neighbour row (levels ``1..m``), one reduction per level
    over the leading axis of its ``(fanout, n, dim)`` view, and one
    combine GEMM over every self row (levels ``0..m-1``). It leaves what
    :meth:`backward` needs in ``saved``.
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
        self.aggregator = _AGGREGATORS[aggregator]
        self.normalize = normalize

    def forward(self, block: np.ndarray, sizes: Sequence[int]) -> np.ndarray:
        """``block``: ``(sum(sizes), in_dim)``; returns
        ``(sum(sizes[:-1]), out_dim)``."""
        self_rows = block.shape[0] - sizes[-1]
        pooled = self.pool.forward(block[sizes[0] :])
        # Level l's neighbours (level l + 1) start where level l ends.
        views, lo = [], 0
        for parents, rows in zip(sizes[:-1], sizes[1:]):
            start = lo + parents - sizes[0]
            view = pooled[start : start + rows].reshape(-1, parents, pooled.shape[1])
            views.append((lo, view))
            lo += parents
        aggregated = [self.aggregator.forward(view) for _, view in views]
        out = self.combine.forward(
            np.concatenate([block[:self_rows], np.concatenate(aggregated)], axis=1)
        )
        norm = None
        if self.normalize:
            norm = np.sqrt(np.einsum("ij,ij->i", out, out))[:, None] + 1e-12
            out = out / norm
        self.saved = (sizes, views, aggregated, norm, out)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Backward one layer; returns the gradient wrt the input block
        (a row's self and neighbour contributions summed)."""
        sizes, views, aggregated, norm, normed = self.saved
        if self.normalize:
            # d(x/||x||) = (I - nn^T)/||x|| applied to grad
            dot = np.einsum("ij,ij->i", grad_out, normed)[:, None]
            grad_out = (grad_out - normed * dot) / norm
        grad_concat = self.combine.backward(grad_out)
        split = self.pool.in_dim
        grad_pooled = np.concatenate(
            [
                self.aggregator.backward(
                    view, out, grad_concat[lo : lo + out.shape[0], split:]
                ).reshape(-1, view.shape[2])
                for (lo, view), out in zip(views, aggregated)
            ]
        )
        grad_neighbors = self.pool.backward(grad_pooled)
        # Levels 1..m-1 are self rows and neighbour rows at once.
        overlap = grad_concat.shape[0] - sizes[0]
        grad = np.concatenate([grad_concat[:, :split], grad_neighbors[overlap:]])
        grad[sizes[0] : sizes[0] + overlap] += grad_neighbors[:overlap]
        return grad

    def step(self, lr: float) -> None:
        self.pool.step(lr)
        self.combine.step(lr)

    def layers(self) -> List[Dense]:
        return [self.pool, self.combine]
