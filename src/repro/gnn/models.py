"""GNN models: graphSAGE encoder and the DSSM end model (Table 3 app)."""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.gnn.layers import Dense, SageLayer


class GraphSageEncoder:
    """Mini-batch graphSAGE encoder over a sampled multi-hop neighborhood.

    Consumes per-hop attribute tensors as produced by
    :class:`~repro.framework.requests.SampleResult`: ``features[l]`` has
    shape ``(batch, width_l, attr_len)`` with ``width_l`` the product of
    the first ``l`` fanouts (``width_0 == 1``). Produces one embedding
    per root.
    """

    def __init__(
        self,
        attr_len: int,
        hidden_dim: int,
        fanouts: Sequence[int],
        aggregator: str = "max",
        seed: int = 0,
    ) -> None:
        if attr_len <= 0 or hidden_dim <= 0:
            raise ConfigurationError("attr_len and hidden_dim must be positive")
        if not fanouts:
            raise ConfigurationError("fanouts must contain at least one hop")
        self.fanouts = tuple(int(f) for f in fanouts)
        self.layers: List[SageLayer] = []
        in_dim = attr_len
        for k in range(len(self.fanouts)):
            self.layers.append(
                SageLayer(in_dim, hidden_dim, aggregator=aggregator, seed=seed + 7 * k)
            )
            in_dim = hidden_dim

    @property
    def num_hops(self) -> int:
        return len(self.fanouts)

    def _normalize_features(self, features: Sequence[np.ndarray]) -> List[np.ndarray]:
        if len(features) != self.num_hops + 1:
            raise ConfigurationError(
                f"expected {self.num_hops + 1} feature tensors, got {len(features)}"
            )
        out = []
        width = 1
        for level, tensor in enumerate(features):
            tensor = np.asarray(tensor, dtype=np.float32)
            if tensor.ndim == 2:
                tensor = tensor[:, None, :]
            if tensor.shape[1] != width:
                raise ConfigurationError(
                    f"feature level {level} has width {tensor.shape[1]}, "
                    f"expected {width}"
                )
            out.append(tensor)
            if level < self.num_hops:
                width *= self.fanouts[level]
        return out

    def _forward_levels(
        self, features: Sequence[np.ndarray]
    ) -> Tuple[List[List[np.ndarray]], List[list]]:
        """Run every (layer, level) forward once.

        Returns ``(all_levels, saved)``: ``all_levels[k]`` are layer
        ``k``'s input tensors per level (``all_levels[-1][0]`` holds the
        root embeddings) and ``saved[k][level]`` is the record that
        forward left in ``layer.saved``, kept because the layer is
        reused across levels and holds one record at a time.
        """
        all_levels = [self._normalize_features(features)]
        saved: List[list] = []
        for layer in self.layers:
            prev = all_levels[-1]
            next_levels: List[np.ndarray] = []
            records = []
            for level in range(len(prev) - 1):
                self_feats = prev[level]
                fanout = self.fanouts[level]
                batch = prev[level + 1].shape[0]
                width = self_feats.shape[1]
                dim = prev[level + 1].shape[2]
                neighbor_feats = prev[level + 1].reshape(batch, width, fanout, dim)
                next_levels.append(layer.forward(self_feats, neighbor_feats))
                records.append(layer.saved)
            all_levels.append(next_levels)
            saved.append(records)
        return all_levels, saved

    def forward(self, features: Sequence[np.ndarray]) -> np.ndarray:
        """Encode roots; returns ``(batch, hidden_dim)`` embeddings."""
        all_levels, _ = self._forward_levels(features)
        return all_levels[-1][0][:, 0, :]

    def forward_backward(
        self, features: Sequence[np.ndarray], grad_fn
    ) -> Tuple[np.ndarray, float]:
        """Run forward, compute loss grad via ``grad_fn``, backpropagate.

        Each (layer, level) forward runs once; its ``saved`` record is
        re-installed on the layer right before that (layer, level)'s
        backward. Backward walks layers last to first and, within a
        layer, levels in ascending order — the order parameter
        gradients accumulate in. ``grad_fn(embeddings) -> (loss, grad)``.

        Returns ``(embeddings, loss)``; parameter gradients are
        accumulated in the layers (call :meth:`step` to apply).
        """
        all_levels, saved = self._forward_levels(features)
        embeddings = all_levels[-1][0][:, 0, :]
        loss, grad_emb = grad_fn(embeddings)
        grads = [grad_emb[:, None, :]]
        for k in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[k]
            prev = all_levels[k]
            next_grads: List[np.ndarray] = [np.zeros_like(lv) for lv in prev]
            for level, record in enumerate(saved[k]):
                layer.saved = record
                grad_self, grad_neighbors = layer.backward(grads[level])
                next_grads[level] += grad_self
                next_grads[level + 1] += grad_neighbors.reshape(prev[level + 1].shape)
            grads = next_grads
        self._input_grads = grads
        return embeddings, float(loss)

    @property
    def input_gradients(self) -> List[np.ndarray]:
        """Gradients wrt the input feature tensors (after backward)."""
        return self._input_grads

    def step(self, lr: float) -> None:
        """Apply accumulated SGD updates on all layers."""
        for layer in self.layers:
            layer.step(lr)

    def dense_layers(self) -> List[Dense]:
        out: List[Dense] = []
        for layer in self.layers:
            out.extend(layer.layers())
        return out


class DSSM:
    """Deep structured semantic model end application (two-tower).

    Scores (query, item) embedding pairs with an MLP tower per side and
    a dot product, as in the Table 3 end model (DSSM 128-128).
    """

    def __init__(
        self, in_dim: int, hidden_dims: Sequence[int] = (128, 128), seed: int = 0
    ) -> None:
        if in_dim <= 0:
            raise ConfigurationError(f"in_dim must be positive, got {in_dim}")
        if not hidden_dims:
            raise ConfigurationError("hidden_dims must not be empty")
        self.query_tower = self._build_tower(in_dim, hidden_dims, seed)
        self.item_tower = self._build_tower(in_dim, hidden_dims, seed + 101)

    @staticmethod
    def _build_tower(in_dim: int, hidden_dims: Sequence[int], seed: int) -> List[Dense]:
        tower: List[Dense] = []
        prev = in_dim
        for i, dim in enumerate(hidden_dims):
            activation = "relu" if i < len(hidden_dims) - 1 else "linear"
            tower.append(Dense(prev, dim, activation=activation, seed=seed + i))
            prev = dim
        return tower

    @staticmethod
    def _tower_forward(tower: List[Dense], x: np.ndarray) -> np.ndarray:
        for layer in tower:
            x = layer.forward(x)
        return x

    @staticmethod
    def _tower_backward(tower: List[Dense], grad: np.ndarray) -> np.ndarray:
        for layer in reversed(tower):
            grad = layer.backward(grad)
        return grad

    def forward(self, query: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Score queries against items.

        ``query``: (batch, in_dim); ``items``: (batch, n_items, in_dim).
        Returns (batch, n_items) dot-product scores.
        """
        self._q = self._tower_forward(self.query_tower, query)
        self._i = self._tower_forward(self.item_tower, items)
        return np.einsum("bd,bnd->bn", self._q, self._i)

    def backward(self, grad_scores: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Backprop through both towers; returns input grads (query, items)."""
        grad_q = np.einsum("bn,bnd->bd", grad_scores, self._i)
        grad_i = np.einsum("bn,bd->bnd", grad_scores, self._q)
        return (
            self._tower_backward(self.query_tower, grad_q),
            self._tower_backward(self.item_tower, grad_i),
        )

    def step(self, lr: float) -> None:
        for layer in self.query_tower + self.item_tower:
            layer.step(lr)

    def dense_layers(self) -> List[Dense]:
        return list(self.query_tower) + list(self.item_tower)
