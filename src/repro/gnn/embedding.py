"""Trainable embedding table (the optional CPU embedding stage).

LSD-GNN pipelines often learn an embedding per node ID alongside (or
instead of) raw attributes; the paper keeps this stage on CPU. The
table supports sparse gather/scatter-grad SGD, which is all the
mini-batch workflow needs.

:class:`ShardedEmbeddingTable` lays the table out by the store
partitioner's shards — one block of rows ordered by (owner, node ID),
each shard a contiguous slice of it — and addresses it through one
node -> row index, so a gather, a gradient scatter and an optimizer
step are each one array operation whatever the shard count. Gradients
sum per node in occurrence order, so the float32 sums are bit-identical
at any shard count — one shard (``HashPartitioner(1)``) is the dense
table.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.errors import ConfigurationError
from repro.gnn.layers import segment_sum
from repro.graph.partition import Partitioner


class EmbeddingShard:
    """One partition's rows of a :class:`ShardedEmbeddingTable`.

    A read-only record: ``node_ids`` are the global node IDs the shard
    owns (strictly sorted) and ``rows[i]`` is the embedding of
    ``node_ids[i]``. In a table, ``rows`` is a *view* of the shard's
    contiguous slice of the table's block, so it always shows the
    trained weights; all gathers and updates go through the table.
    """

    def __init__(
        self, shard: int, node_ids: np.ndarray, rows: np.ndarray
    ) -> None:
        node_ids = np.asarray(node_ids, dtype=np.int64).reshape(-1)
        if node_ids.size > 1 and not np.all(np.diff(node_ids) > 0):
            raise ConfigurationError("shard node_ids must be strictly sorted")
        rows = np.asarray(rows, dtype=np.float32)
        if rows.shape[0] != node_ids.size:
            raise ConfigurationError(
                f"{node_ids.size} node IDs but {rows.shape[0]} rows"
            )
        self.shard = shard
        self.node_ids = node_ids
        self.rows = rows


class ShardedEmbeddingTable:
    """Embedding table sharded by the store's partitioner.

    Initialization draws one ``(num_nodes, dim)`` matrix from the
    seeded RNG stream and stores its rows in one float32 block ordered
    by (owner, node ID) — a stable argsort of the partitioner's owners
    — with an int64 ``node -> block row`` slot index beside it (8 bytes
    per node). ``shards[s].rows`` is shard ``s``'s contiguous view of
    the block. Tables at any partition count therefore start
    bit-identical and — because every occurrence of a node adds into
    that node's one pending row in occurrence order — stay bit-identical
    under training.
    """

    def __init__(
        self,
        num_nodes: int,
        dim: int,
        partitioner: Partitioner,
        seed: int = 0,
    ) -> None:
        if num_nodes <= 0 or dim <= 0:
            raise ConfigurationError("num_nodes and dim must be positive")
        rng = np.random.default_rng(seed)
        scale = 1.0 / np.sqrt(dim)
        dense = rng.uniform(-scale, scale, size=(num_nodes, dim)).astype(
            np.float32
        )
        self.partitioner = partitioner
        all_nodes = np.arange(num_nodes, dtype=np.int64)
        owners = np.asarray(partitioner.partition_of(all_nodes), dtype=np.int64)
        order = np.argsort(owners, kind="stable")  # block row -> node
        self._block = dense[order]
        self._slot = np.empty(num_nodes, dtype=np.int64)  # node -> block row
        self._slot[order] = np.arange(num_nodes)
        bounds = np.searchsorted(
            owners[order], np.arange(partitioner.num_partitions + 1)
        )
        self.shards: List[EmbeddingShard] = [
            EmbeddingShard(shard, order[lo:hi], self._block[lo:hi])
            for shard, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:]))
        ]
        self._num_nodes = num_nodes
        self._dim = dim
        self._clear_pending()

    def _clear_pending(self) -> None:
        self._pending_nodes = np.empty(0, dtype=np.int64)
        self._pending_grads = np.empty((0, self._dim), dtype=np.float32)

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def _check_range(self, nodes: np.ndarray) -> None:
        # The slot index would wrap a negative ID silently.
        if nodes.size and (nodes.min() < 0 or nodes.max() >= self._num_nodes):
            raise ConfigurationError("embedding lookup outside [0, num_nodes)")

    def lookup(self, nodes: np.ndarray) -> np.ndarray:
        """Gather rows: ``nodes.shape + (dim,)``, one fancy index."""
        nodes = np.asarray(nodes, dtype=np.int64)
        self._check_range(nodes)
        return self._block[self._slot[nodes]]

    def accumulate_grad(self, nodes: np.ndarray, grads: np.ndarray) -> None:
        """Scatter-add gradient rows into the pending update.

        Duplicate node IDs sum their gradients, matching dense autograd
        semantics. The merge is one dedup of the pending rows plus the
        batch and one segment-sum scatter over them; it applies each
        node's additions in occurrence order (pending first), so
        per-node float32 sums do not depend on how the table is sharded
        or on how a batch was split across calls.
        """
        nodes = np.asarray(nodes, dtype=np.int64).reshape(-1)
        self._check_range(nodes)
        grads = np.asarray(grads, dtype=np.float32).reshape(-1, self._dim)
        if nodes.size != grads.shape[0]:
            raise ConfigurationError(
                f"{nodes.size} indices but {grads.shape[0]} gradient rows"
            )
        all_nodes = np.concatenate([self._pending_nodes, nodes])
        all_grads = np.concatenate([self._pending_grads, grads])
        unique, inverse = np.unique(all_nodes, return_inverse=True)
        self._pending_nodes = unique
        self._pending_grads = segment_sum(all_grads, inverse, unique.size)

    def step(self, lr: float) -> None:
        """One optimizer step over every pending row."""
        self._block[self._slot[self._pending_nodes]] -= lr * self._pending_grads
        self._clear_pending()

    @property
    def pending_rows(self) -> int:
        return int(self._pending_nodes.size)

    def to_dense(self) -> np.ndarray:
        """The full (num_nodes, dim) table in node order (parity checks)."""
        return self._block[self._slot]
