"""Tests for repro.memstore.store."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, GraphError
from repro.graph.csr import CSRGraph
from repro.graph.datasets import instantiate_dataset
from repro.graph.dynamic import DynamicGraph
from repro.graph.partition import HashPartitioner, RangePartitioner
from repro.memstore.ingest import DynamicPartitionedStore
from repro.memstore.store import AccessKind, AccessSummary, PartitionedStore


@pytest.fixture
def store():
    attrs = np.arange(40, dtype=np.float32).reshape(10, 4)
    graph = CSRGraph.from_edges(
        10, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5)], node_attr=attrs
    )
    return PartitionedStore(graph, RangePartitioner(2, 10))


class TestAccessAccounting:
    def test_get_neighbors_returns_correct_ids(self, store):
        assert sorted(store.get_neighbors(0).tolist()) == [1, 2, 3]

    def test_neighbor_access_records_structure(self, store):
        store.get_neighbors(0)
        summary = store.summary
        # index + offsets + one ID block
        assert summary.structure_count == 3
        assert summary.attribute_count == 0
        assert summary.structure_bytes == 16 + 16 + 3 * 8

    def test_zero_degree_skips_id_read(self, store):
        store.get_neighbors(9)
        assert store.summary.structure_count == 2

    def test_attribute_access_records_both_kinds(self, store):
        rows = store.get_attributes([1, 2])
        assert rows.shape == (2, 4)
        summary = store.summary
        assert summary.attribute_count == 2
        assert summary.structure_count == 2  # index lookups
        assert summary.attribute_bytes == 2 * 16

    def test_locality_attribution(self, store):
        # Range partition of 10 nodes into 2: nodes 0-4 on partition 0.
        store.get_attributes([0, 7], from_partition=0)
        assert store.summary.remote_count == 2  # index + row for node 7

    def test_none_partition_is_all_local(self, store):
        store.get_attributes([0, 7], from_partition=None)
        assert store.summary.remote_count == 0

    def test_batch_neighbors(self, store):
        lists = store.get_neighbors_batch([0, 1])
        assert len(lists) == 2
        assert lists[1].tolist() == [4]

    def test_reset_trace(self, store):
        store.get_neighbors(0)
        store.reset_trace()
        assert store.summary.total_count == 0

    def test_trace_records_when_enabled(self, store):
        store.tracing = True
        store.get_attributes([3])
        kinds = [record.kind for record in store.trace]
        assert AccessKind.STRUCTURE in kinds and AccessKind.ATTRIBUTE in kinds

    def test_trace_empty_when_disabled(self, store):
        store.get_attributes([3])
        assert store.trace == ()


class TestSummaryProperties:
    def test_fraction_properties(self, store):
        store.get_neighbors(0, from_partition=1)  # remote (node 0 on part 0)
        store.get_attributes([0], from_partition=0)  # local
        summary = store.summary
        assert 0 < summary.structure_count_fraction < 1
        assert 0 < summary.remote_count_fraction < 1
        assert 0 < summary.remote_bytes_fraction < 1

    def test_empty_summary_fractions(self, store):
        assert store.summary.structure_count_fraction == 0.0
        assert store.summary.remote_count_fraction == 0.0
        assert store.summary.remote_bytes_fraction == 0.0


class TestPartitionSizes:
    def test_partition_sizes_sum(self, store):
        sizes = store.partition_sizes()
        assert sizes.sum() == 10
        assert len(sizes) == 2

    def test_hash_partition_sizes_balanced(self):
        graph = CSRGraph.from_edges(10_000, [])
        store = PartitionedStore(graph, HashPartitioner(4))
        sizes = store.partition_sizes()
        assert sizes.min() > 0.8 * sizes.mean()


class TestVectorizedBatch:
    def test_batch_neighbors_matches_per_node_accounting(self, store):
        nodes = [0, 1, 7, 9]
        batch = store.get_neighbors_batch(nodes, from_partition=0)
        reference = PartitionedStore(store.graph, store.partitioner)
        rows = [reference.get_neighbors(n, from_partition=0) for n in nodes]
        assert store.summary == reference.summary
        for got, want in zip(batch, rows):
            assert np.array_equal(got, want)
        assert batch.served.all()
        assert batch.fallbacks == 0

    def test_batch_neighbors_counts_multiplicity(self, store):
        counts = np.array([3, 1])
        store.get_neighbors_batch([0, 9], from_partition=0, counts=counts)
        reference = PartitionedStore(store.graph, store.partitioner)
        for _ in range(3):
            reference.get_neighbors(0, from_partition=0)
        reference.get_neighbors(9, from_partition=0)
        assert store.summary == reference.summary

    def test_batch_attributes_matches_per_node_accounting(self, store):
        nodes = np.array([0, 6, 7])
        batch = store.get_attributes_batch(nodes, from_partition=0)
        reference = PartitionedStore(store.graph, store.partitioner)
        rows = reference.get_attributes(nodes, from_partition=0)
        assert store.summary == reference.summary
        assert np.array_equal(batch.rows, rows)
        assert len(batch) == 3

    def test_attributes_dedup_same_totals_and_rows(self, store):
        nodes = np.array([2, 5, 2, 2, 5])
        unique, inverse, counts = np.unique(
            nodes, return_inverse=True, return_counts=True
        )
        batch = store.get_attributes_batch(
            unique, from_partition=0, counts=counts
        )
        reference = PartitionedStore(store.graph, store.partitioner)
        expected = reference.get_attributes(nodes, from_partition=0)
        assert store.summary == reference.summary
        assert np.array_equal(batch.rows[inverse], expected)

    def test_neighbor_batch_supports_indexing(self, store):
        batch = store.get_neighbors_batch([0, 1])
        assert len(batch) == 2
        assert batch[1].tolist() == [4]
        assert [b.tolist() for b in batch] == [batch[0].tolist(), batch[1].tolist()]

    def test_batch_trace_totals_match(self, store):
        store.tracing = True
        store.get_neighbors_batch([0, 1, 9], from_partition=0, counts=np.array([2, 1, 1]))
        reference = PartitionedStore(store.graph, store.partitioner)
        reference.tracing = True
        for node in (0, 0, 1, 9):
            reference.get_neighbors(node, from_partition=0)
        assert sorted((r.kind.value, r.nbytes, r.local) for r in store.trace) == \
            sorted((r.kind.value, r.nbytes, r.local) for r in reference.trace)


class TestRecordBatchScalarBytes:
    def test_scalar_nbytes_equals_array_form(self, store):
        """A scalar byte size is shorthand for the same size per entry:
        totals, remote split and the per-record trace all match."""
        twin = PartitionedStore(store.graph, store.partitioner)
        store.tracing = twin.tracing = True
        local = np.array([True, False, False, True, False])
        counts = np.array([2, 0, 3, 1, 1])
        for kind, nbytes in ((AccessKind.STRUCTURE, 16), (AccessKind.ATTRIBUTE, 608)):
            for c in (counts, np.ones(5, dtype=np.int64), np.zeros(5, dtype=np.int64)):
                store._record_batch(local, c, [(kind, nbytes)])
                twin._record_batch(local, c, [(kind, np.full(local.shape, nbytes))])
        assert store.summary == twin.summary
        assert store.trace == twin.trace
        assert store.summary.remote_count == 2 * (3 + 1 + 3)
        assert store.summary.remote_bytes == (3 + 1 + 3) * (16 + 608)

    def test_batch_trace_is_a_permutation_of_single_reads(self, store):
        nodes, counts = np.array([0, 1, 9, 6]), np.array([2, 1, 3, 1])
        twin = PartitionedStore(store.graph, store.partitioner)
        store.tracing = twin.tracing = True
        store.get_neighbors_batch(nodes, 0, counts=counts)
        store.get_attributes_batch(nodes, 0, counts=counts)
        for node, count in zip(nodes, counts):
            for _ in range(count):
                twin.get_neighbors(int(node), 0)
        for node, count in zip(nodes, counts):
            for _ in range(count):
                twin.get_attributes([int(node)], 0)
        assert store.summary == twin.summary
        assert sorted(store.trace, key=repr) == sorted(twin.trace, key=repr)


class TestLocalityTracking:
    """Exact gather-contiguity counters on hand-built batches."""

    @pytest.fixture(scope="class")
    def graph(self):
        return instantiate_dataset("ll", max_nodes=800, seed=0)

    def test_counters_off_by_default(self, graph):
        store = PartitionedStore(graph, HashPartitioner(4))
        store.get_neighbors_batch(np.arange(32))
        assert store.summary.gather_nodes == 0
        assert store.summary.gather_runs == 0
        assert store.summary.mean_run_length == 0.0

    def test_counters_track_contiguity(self, graph):
        store = PartitionedStore(graph, HashPartitioner(4), track_locality=True)
        store.get_neighbors_batch(np.arange(32))  # one contiguous run
        assert store.summary.gather_nodes == 32
        assert store.summary.gather_runs == 1
        assert store.summary.mean_run_length == 32.0
        store.get_neighbors_batch(np.array([100, 102, 104]))  # three runs
        assert store.summary.gather_runs == 4
        assert store.summary.gather_span_bytes > 0


def ten_node_store(kind, attributes=True):
    attrs = np.arange(40, dtype=np.float32).reshape(10, 4) if attributes else None
    graph = CSRGraph.from_edges(
        10, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5)], node_attr=attrs
    )
    if kind == "dynamic":
        return DynamicPartitionedStore(DynamicGraph(graph), HashPartitioner(2))
    return PartitionedStore(graph, HashPartitioner(2), track_locality=True)


class TestFailedReadsChargeNothing:
    """A read that raises on its input has issued no access: node IDs,
    attribute presence and ``counts`` are checked before anything is
    recorded, in the summary or in the gather counters."""

    @pytest.mark.parametrize("kind", ["static", "dynamic"])
    @pytest.mark.parametrize("form", ["batch", "per-node"])
    @pytest.mark.parametrize("fault", ["out-of-range", "attribute-less"])
    def test_attribute_read(self, kind, form, fault):
        store = ten_node_store(kind, attributes=fault != "attribute-less")
        nodes = [3, 10**6] if fault == "out-of-range" else [3]
        read = store.get_attributes_batch if form == "batch" else store.get_attributes
        with pytest.raises(GraphError):
            read(nodes, 0)
        assert store.summary == AccessSummary()

    @pytest.mark.parametrize("kind", ["static", "dynamic"])
    @pytest.mark.parametrize("read", ["get_neighbors_batch", "get_attributes_batch"])
    @pytest.mark.parametrize("counts", [[-5, 1], [1.5, 1]], ids=["negative", "fractional"])
    def test_bad_counts(self, kind, read, counts):
        store = ten_node_store(kind)
        with pytest.raises(ConfigurationError):
            getattr(store, read)([1, 2], 0, counts=np.array(counts))
        assert store.summary == AccessSummary()
