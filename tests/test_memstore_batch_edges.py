"""Edge-case coverage for the store's vectorized batch gathers.

Three regimes the hot-path tests skip over: empty frontiers, batches
whose every occurrence fails under fault injection (all-miss), and
deduplicated batches where every key repeats (``counts`` > 1
everywhere). Accounting parity against repeated single-node calls is
the invariant throughout.
"""

import numpy as np
import pytest

from repro.errors import ReplicaUnavailableError
from repro.graph.csr import CSRGraph
from repro.graph.partition import HashPartitioner, RangePartitioner
from repro.memstore.faults import FaultInjector, ReliableReadPath
from repro.memstore.replication import ReplicaPlacement
from repro.memstore.retry import RetryPolicy
from repro.memstore.store import PartitionedStore


def chain_graph(num_nodes: int = 10, attr_len: int = 4) -> CSRGraph:
    """Node i points at node i+1 (last node isolated)."""
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    indptr[1:] = np.minimum(np.arange(1, num_nodes + 1), num_nodes - 1)
    indices = np.arange(1, num_nodes, dtype=np.int64)
    attr = (
        np.arange(1, num_nodes + 1, dtype=np.float32)[:, None]
        * np.ones(attr_len, dtype=np.float32)
    )
    return CSRGraph(indptr=indptr, indices=indices, node_attr=attr)


def faulty_store(kill: bool = True) -> PartitionedStore:
    """Two range shards; shard 1's only replica is dead when ``kill``."""
    graph = chain_graph(10)
    partitioner = RangePartitioner(2, graph.num_nodes)
    placement = ReplicaPlacement(num_partitions=2, replication_factor=1)
    injector = FaultInjector()
    path = ReliableReadPath(
        placement, RetryPolicy(hedge=False), injector, seed=0, jitter_sigma=0.0
    )
    if kill:
        injector.kill_replica(1, 0)
    return PartitionedStore(graph, partitioner, reliability=path)


class TestEmptyFrontier:
    def test_neighbors_empty(self):
        store = PartitionedStore(chain_graph(), HashPartitioner(2))
        batch = store.get_neighbors_batch(np.empty(0, dtype=np.int64), 0)
        assert len(batch) == 0
        assert batch.values.size == 0
        assert batch.offsets.tolist() == [0]
        assert batch.served.size == 0
        assert batch.fallbacks == 0
        assert store.summary.total_count == 0
        assert store.summary.total_bytes == 0

    def test_attributes_empty(self):
        store = PartitionedStore(chain_graph(), HashPartitioner(2))
        batch = store.get_attributes_batch(np.empty(0, dtype=np.int64), 0)
        assert len(batch) == 0
        assert batch.rows.shape == (0, store.graph.attr_len)
        assert batch.fallbacks == 0
        assert store.summary.total_count == 0

    def test_empty_with_counts(self):
        store = PartitionedStore(chain_graph(), HashPartitioner(2))
        batch = store.get_neighbors_batch(
            np.empty(0, dtype=np.int64), 0, counts=np.empty(0, dtype=np.int64)
        )
        assert len(batch) == 0
        assert store.summary.total_count == 0


class TestAllMissUnderFaults:
    def test_neighbors_all_miss_degraded(self):
        store = faulty_store()
        # Nodes 5..8 live on dead shard 1; reader sits on shard 0.
        nodes = np.arange(5, 9, dtype=np.int64)
        counts = np.full(4, 2, dtype=np.int64)
        batch = store.get_neighbors_batch(nodes, 0, counts=counts, degraded_ok=True)
        assert not batch.served.any()
        assert batch.fallbacks == int(counts.sum())
        # Every miss degrades to an empty slice; nothing is recorded.
        assert batch.values.size == 0
        assert batch.offsets.tolist() == [0, 0, 0, 0, 0]
        assert store.summary.total_count == 0
        assert store.summary.remote_count == 0

    def test_attributes_all_miss_degraded(self):
        store = faulty_store()
        nodes = np.arange(5, 9, dtype=np.int64)
        batch = store.get_attributes_batch(nodes, 0, degraded_ok=True)
        assert not batch.served.any()
        assert batch.fallbacks == nodes.size
        assert not batch.rows.any()  # degraded rows are zero, not junk
        assert not np.isnan(batch.rows).any()
        assert store.summary.total_count == 0

    def test_all_miss_raises_without_degraded_ok(self):
        store = faulty_store()
        nodes = np.arange(5, 9, dtype=np.int64)
        with pytest.raises(ReplicaUnavailableError):
            store.get_neighbors_batch(nodes, 0, degraded_ok=False)
        with pytest.raises(ReplicaUnavailableError):
            store.get_attributes_batch(nodes, 0, degraded_ok=False)
        # The failing (first) occurrence recorded nothing.
        assert store.summary.total_count == 0

    def test_live_shard_unaffected(self):
        store = faulty_store()
        nodes = np.arange(0, 4, dtype=np.int64)  # shard 0, local to reader
        batch = store.get_neighbors_batch(nodes, 0, degraded_ok=True)
        assert batch.served.all()
        assert batch.fallbacks == 0


class TestDedupCountsAllRepeated:
    """``counts`` accounting when every key occurs more than once."""

    def occurrences(self, counts):
        nodes = np.arange(1, 5, dtype=np.int64)
        return nodes, np.asarray(counts, dtype=np.int64)

    def test_neighbors_counts_match_repeated_singles(self):
        nodes, counts = self.occurrences([3, 2, 4, 2])
        batched = PartitionedStore(chain_graph(), HashPartitioner(2))
        batched.get_neighbors_batch(nodes, 0, counts=counts)
        single = PartitionedStore(chain_graph(), HashPartitioner(2))
        for node, count in zip(nodes, counts):
            for _ in range(count):
                single.get_neighbors(int(node), 0)
        assert batched.summary == single.summary

    def test_attributes_counts_match_repeated_singles(self):
        nodes, counts = self.occurrences([2, 2, 2, 2])
        batched = PartitionedStore(chain_graph(), HashPartitioner(2))
        batched.get_attributes_batch(nodes, 0, counts=counts)
        single = PartitionedStore(chain_graph(), HashPartitioner(2))
        for node, count in zip(nodes, counts):
            for _ in range(count):
                single.get_attributes(np.asarray([node], dtype=np.int64), 0)
        assert batched.summary == single.summary

    def test_dedup_get_attributes_every_key_repeated(self):
        nodes = np.array([3, 1, 3, 1, 3], dtype=np.int64)
        unique, inverse, counts = np.unique(
            nodes, return_inverse=True, return_counts=True
        )
        deduped = PartitionedStore(chain_graph(), HashPartitioner(2))
        batch = deduped.get_attributes_batch(unique, 0, counts=counts)
        plain = PartitionedStore(chain_graph(), HashPartitioner(2))
        expected = plain.get_attributes(nodes, 0)
        np.testing.assert_array_equal(batch.rows[inverse], expected)
        assert deduped.summary == plain.summary

    def test_counts_shape_mismatch_rejected(self):
        from repro.errors import ConfigurationError

        store = PartitionedStore(chain_graph(), HashPartitioner(2))
        with pytest.raises(ConfigurationError):
            store.get_neighbors_batch(
                np.array([1, 2]), 0, counts=np.array([1, 2, 3])
            )
        with pytest.raises(ConfigurationError):
            store.get_attributes_batch(
                np.array([1, 2]), 0, counts=np.array([1])
            )
