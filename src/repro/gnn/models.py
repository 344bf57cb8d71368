"""GNN models: graphSAGE encoder and the DSSM end model (Table 3 app)."""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.gnn.layers import Dense, SageLayer


class GraphSageEncoder:
    """Mini-batch graphSAGE encoder over a sampled multi-hop neighborhood.

    Runs on one slot-major ``(rows, attr_len)`` block (:meth:`stack`
    builds it from per-level arrays): level ``l`` holds ``batch *
    width_l`` rows, ``width_l`` the product of the first ``l`` fanouts,
    and row ``s * n + p`` of level ``l >= 1`` is slot ``s`` of row ``p``
    of level ``l - 1`` (``n`` rows). Layer ``k`` maps levels ``0..L-k``
    to ``0..L-k-1`` in one forward, so a step runs ``L`` layer forwards
    and ``L`` backwards. Produces one embedding per root.
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
        self.attr_len = attr_len
        self.fanouts = tuple(int(f) for f in fanouts)
        self.widths = [int(w) for w in np.cumprod((1,) + self.fanouts)]
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

    def stack(self, levels: Sequence[np.ndarray]) -> np.ndarray:
        """Lay per-level arrays out as one slot-major block.

        ``levels[l]`` has shape ``(batch, width_l) + trailing`` (level 0
        may drop its width axis), with ``trailing`` either ``()`` (one
        node ID per slot) or ``(attr_len,)`` (one feature row). Returns
        ``(rows,) + trailing``. Every shape is checked before anything
        is stacked: inside the block a wrong batch would slice silently.
        """
        if len(levels) != self.num_hops + 1:
            raise ConfigurationError(
                f"expected {self.num_hops + 1} feature tensors, got {len(levels)}"
            )
        levels = [np.asarray(level) for level in levels]
        batch = levels[0].shape[0]
        trailing = levels[-1].shape[2:]
        if trailing not in ((), (self.attr_len,)):
            raise ConfigurationError(
                f"feature rows have shape {trailing}, expected ({self.attr_len},)"
            )
        if levels[0].ndim == len(trailing) + 1:
            levels[0] = levels[0][:, None]
        blocks = []
        for level, (array, width) in enumerate(zip(levels, self.widths)):
            if array.shape[0] != batch:
                raise ConfigurationError(
                    f"feature level {level} has batch {array.shape[0]}, "
                    f"level 0 has {batch}"
                )
            if array.shape != (batch, width) + trailing:
                raise ConfigurationError(
                    f"feature level {level} has shape {array.shape}, expected "
                    f"{(batch, width) + trailing}"
                )
            nested = array.reshape((batch,) + self.fanouts[:level] + trailing)
            axes = (*range(level, -1, -1), *range(level + 1, nested.ndim))
            blocks.append(nested.transpose(axes).reshape((-1,) + trailing))
        return np.concatenate(blocks)

    def forward(self, block: np.ndarray) -> np.ndarray:
        """Encode roots; returns ``(batch, hidden_dim)`` embeddings.

        ``block`` is cast to the parameters' dtype (float32 as built).
        """
        block = np.asarray(block, dtype=self.layers[0].pool.weight.dtype)
        per_root = sum(self.widths)
        if block.ndim != 2 or block.shape[1] != self.attr_len or block.shape[0] % per_root:
            raise ConfigurationError(
                f"expected a (batch * {per_root}, {self.attr_len}) block, "
                f"got {block.shape}"
            )
        sizes = [block.shape[0] // per_root * width for width in self.widths]
        for k, layer in enumerate(self.layers):
            block = layer.forward(block, sizes[: len(sizes) - k])
        return block

    def forward_backward(
        self, block: np.ndarray, grad_fn
    ) -> Tuple[np.ndarray, float]:
        """Run forward, compute loss grad via ``grad_fn``, backpropagate.

        ``grad_fn(embeddings) -> (loss, grad)``. Returns ``(embeddings,
        loss)``; parameter gradients accumulate in the layers (call
        :meth:`step` to apply) and :attr:`input_gradients` holds the
        gradient wrt ``block``, row for row.
        """
        embeddings = self.forward(block)
        loss, grad = grad_fn(embeddings)
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        self._input_grads = grad
        return embeddings, float(loss)

    @property
    def input_gradients(self) -> np.ndarray:
        """Gradient wrt the input block (after backward)."""
        return self._input_grads

    def step(self, lr: float) -> None:
        """Apply accumulated SGD updates on all layers."""
        for layer in self.layers:
            layer.step(lr)

    def dense_layers(self) -> List[Dense]:
        return [dense for layer in self.layers for dense in layer.layers()]


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
