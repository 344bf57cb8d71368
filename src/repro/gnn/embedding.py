"""Trainable embedding table (the optional CPU embedding stage).

LSD-GNN pipelines often learn an embedding per node ID alongside (or
instead of) raw attributes; the paper keeps this stage on CPU. The
table supports sparse gather/scatter-grad SGD, which is all the
mini-batch workflow needs.

:class:`ShardedEmbeddingTable` splits the table across the store
partitioner's shards for the pipelined trainer: gathers deduplicate
rows per micro-batch, gradients scatter-add back to the owning shard,
and because every occurrence of a node routes to exactly one shard in
occurrence order, the float32 sums are bit-identical at any shard
count — one shard (``HashPartitioner(1)``) is the dense table.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.errors import ConfigurationError
from repro.gnn.layers import segment_sum
from repro.graph.partition import Partitioner


class EmbeddingShard:
    """One partition's rows of a :class:`ShardedEmbeddingTable`.

    The shard owns a disjoint subset of global node IDs and stores only
    those rows. Gradient routing is the caller's job; a batch containing
    a node this shard does not own is a contract violation and raises.
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
        self._pending_nodes = np.empty(0, dtype=np.int64)
        self._pending_grads = np.empty((0, self.dim), dtype=np.float32)

    @property
    def dim(self) -> int:
        return int(self.rows.shape[1])

    def _local(self, nodes: np.ndarray) -> np.ndarray:
        """Map global node IDs to local row indices (raises if unowned)."""
        local = np.searchsorted(self.node_ids, nodes)
        if self.node_ids.size == 0:  # an empty shard owns nothing
            bad = np.ones(nodes.shape, dtype=bool)
        else:
            bad = (local >= self.node_ids.size) | (
                self.node_ids[np.minimum(local, self.node_ids.size - 1)]
                != nodes
            )
        if nodes.size and bad.any():
            offenders = np.asarray(nodes)[bad][:5].tolist()
            raise ConfigurationError(
                f"node IDs {offenders} are not owned by embedding shard "
                f"{self.shard}; gradients must be routed to the owning shard"
            )
        return local

    def lookup(self, nodes: np.ndarray) -> np.ndarray:
        nodes = np.asarray(nodes, dtype=np.int64).reshape(-1)
        return self.rows[self._local(nodes)]

    def accumulate_grad(self, nodes: np.ndarray, grads: np.ndarray) -> None:
        """Scatter-add gradients for owned rows (occurrence order).

        Duplicate node IDs within a batch sum their gradients, matching
        dense autograd semantics. The merge is one segment-sum scatter
        over the pending rows plus the batch; it applies additions in
        occurrence order, so per-node float32 sums do not depend on how
        the table is sharded.
        """
        nodes = np.asarray(nodes, dtype=np.int64).reshape(-1)
        grads = np.asarray(grads, dtype=np.float32).reshape(-1, self.dim)
        if nodes.size != grads.shape[0]:
            raise ConfigurationError(
                f"{nodes.size} indices but {grads.shape[0]} gradient rows"
            )
        self._local(nodes)  # ownership check before any state mutation
        all_nodes = np.concatenate([self._pending_nodes, nodes])
        all_grads = np.concatenate([self._pending_grads, grads])
        unique, inverse = np.unique(all_nodes, return_inverse=True)
        self._pending_nodes = unique
        self._pending_grads = segment_sum(all_grads, inverse, unique.size)

    def step(self, lr: float) -> None:
        self.rows[self._local(self._pending_nodes)] -= lr * self._pending_grads
        self._pending_nodes = np.empty(0, dtype=np.int64)
        self._pending_grads = np.empty((0, self.dim), dtype=np.float32)

    @property
    def pending_rows(self) -> int:
        return int(self._pending_nodes.size)


class ShardedEmbeddingTable:
    """Embedding table sharded by the store's partitioner.

    Initialization draws one ``(num_nodes, dim)`` matrix from the
    seeded RNG stream and then splits rows by owner, so tables at any
    partition count start bit-identical and — because all occurrences
    of a node route to its single owning shard in occurrence order —
    stay bit-identical under training.
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
        self.shards: List[EmbeddingShard] = []
        for shard in range(partitioner.num_partitions):
            owned = all_nodes[owners == shard]
            self.shards.append(EmbeddingShard(shard, owned, dense[owned]))
        self._num_nodes = num_nodes
        self._dim = dim

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
        if nodes.size and (nodes.min() < 0 or nodes.max() >= self._num_nodes):
            raise ConfigurationError("embedding lookup outside [0, num_nodes)")

    def lookup(self, nodes: np.ndarray) -> np.ndarray:
        """Dedup'd gather: each distinct row is fetched from its owning
        shard once, then broadcast back to every occurrence."""
        nodes = np.asarray(nodes, dtype=np.int64)
        self._check_range(nodes.reshape(-1))
        flat = nodes.reshape(-1)
        unique, inverse = np.unique(flat, return_inverse=True)
        gathered = np.empty((unique.size, self._dim), dtype=np.float32)
        owners = np.asarray(self.partitioner.partition_of(unique), dtype=np.int64)
        for shard_obj in self.shards:
            mask = owners == shard_obj.shard
            if mask.any():
                gathered[mask] = shard_obj.lookup(unique[mask])
        return gathered[inverse].reshape(nodes.shape + (self._dim,))

    def accumulate_grad(self, nodes: np.ndarray, grads: np.ndarray) -> None:
        """Route each gradient row to its owning shard (scatter-add).

        Boolean-mask routing preserves occurrence order within a shard,
        which keeps per-node float32 accumulation bit-identical at any
        shard count.
        """
        nodes = np.asarray(nodes, dtype=np.int64).reshape(-1)
        self._check_range(nodes)
        grads = np.asarray(grads, dtype=np.float32).reshape(-1, self._dim)
        if nodes.size != grads.shape[0]:
            raise ConfigurationError(
                f"{nodes.size} indices but {grads.shape[0]} gradient rows"
            )
        owners = np.asarray(self.partitioner.partition_of(nodes), dtype=np.int64)
        for shard_obj in self.shards:
            mask = owners == shard_obj.shard
            if mask.any():
                shard_obj.accumulate_grad(nodes[mask], grads[mask])

    def step(self, lr: float) -> None:
        """One optimizer step, shard by shard in shard order."""
        for shard_obj in self.shards:
            shard_obj.step(lr)

    @property
    def pending_rows(self) -> int:
        return sum(shard.pending_rows for shard in self.shards)

    def to_dense(self) -> np.ndarray:
        """Reassemble the full (num_nodes, dim) table (parity checks)."""
        dense = np.empty((self._num_nodes, self._dim), dtype=np.float32)
        for shard_obj in self.shards:
            dense[shard_obj.node_ids] = shard_obj.rows
        return dense
