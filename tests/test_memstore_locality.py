"""Tests for the locality layout: relabeling, ordering, store wiring."""

import numpy as np
import pytest

from repro.api import GnnSession
from repro.errors import ConfigurationError, GraphError, PartitionError
from repro.framework.replay import replay_reference
from repro.framework.requests import NegativeSampleRequest, SampleRequest
from repro.framework.sampler import MultiHopSampler
from repro.graph.csr import CSRGraph
from repro.graph.datasets import instantiate_dataset
from repro.graph.partition import HashPartitioner
from repro.memstore.locality import (
    LAYOUT_METHODS,
    BlockPartitioner,
    Relabeling,
    apply_layout,
    build_locality_layout,
    locality_order,
)
from repro.memstore.store import PartitionedStore


@pytest.fixture(scope="module")
def graph():
    return instantiate_dataset("ll", max_nodes=800, seed=0)


class TestRelabeling:
    def test_identity(self):
        rel = Relabeling.identity(5)
        nodes = np.array([0, 3, 4])
        assert np.array_equal(rel.to_internal(nodes), nodes)
        assert np.array_equal(rel.to_original(nodes), nodes)

    def test_round_trip(self):
        order = np.array([2, 0, 3, 1])  # internal -> original
        fwd = np.empty(4, dtype=np.int64)
        fwd[order] = np.arange(4)
        rel = Relabeling(fwd, order)
        nodes = np.array([[0, 1], [2, 3]])
        assert np.array_equal(rel.to_original(rel.to_internal(nodes)), nodes)
        assert rel.to_internal(2) == 0
        assert rel.to_original(0) == 2

    def test_rejects_non_inverse_maps(self):
        with pytest.raises(GraphError):
            Relabeling(np.array([0, 0, 1]), np.array([0, 1, 2]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(GraphError):
            Relabeling(np.array([0, 1]), np.array([0, 1, 2]))

    def test_to_internal_range_checked(self):
        rel = Relabeling.identity(3)
        with pytest.raises(GraphError):
            rel.to_internal(np.array([3]))
        with pytest.raises(GraphError):
            rel.to_internal(np.array([-1]))


class TestBlockPartitioner:
    def test_partition_of(self):
        part = BlockPartitioner([0, 3, 3, 7])
        assert part.num_partitions == 3
        nodes = np.array([0, 2, 3, 6])
        assert part.partition_of(nodes).tolist() == [0, 0, 2, 2]
        assert part.partition_sizes().tolist() == [3, 0, 4]

    def test_rejects_bad_bounds(self):
        with pytest.raises(PartitionError):
            BlockPartitioner([0])
        with pytest.raises(PartitionError):
            BlockPartitioner([1, 4])
        with pytest.raises(PartitionError):
            BlockPartitioner([0, 5, 3])

    def test_rejects_out_of_range_nodes(self):
        part = BlockPartitioner([0, 2, 4])
        with pytest.raises(PartitionError):
            part.partition_of(np.array([4]))


class TestLocalityOrder:
    def test_is_permutation_and_partition_contiguous(self, graph):
        assignment = HashPartitioner(4).partition_of(
            np.arange(graph.num_nodes)
        )
        order = locality_order(graph, assignment)
        assert sorted(order.tolist()) == list(range(graph.num_nodes))
        # Internal IDs visit partitions in one contiguous block each.
        parts = assignment[order]
        changes = np.count_nonzero(np.diff(parts) != 0)
        assert changes == len(np.unique(assignment)) - 1

    def test_deterministic(self, graph):
        assignment = HashPartitioner(4).partition_of(
            np.arange(graph.num_nodes)
        )
        assert np.array_equal(
            locality_order(graph, assignment),
            locality_order(graph, assignment),
        )

    def test_rejects_wrong_assignment_shape(self, graph):
        with pytest.raises(PartitionError):
            locality_order(graph, np.zeros(3, dtype=np.int64))


class TestApplyLayout:
    def test_graph_isomorphic_under_bijection(self, graph):
        assignment = HashPartitioner(3).partition_of(
            np.arange(graph.num_nodes)
        )
        order = locality_order(graph, assignment)
        relabeled, rel = apply_layout(graph, order)
        assert relabeled.num_nodes == graph.num_nodes
        assert relabeled.num_edges == graph.num_edges
        for internal in (0, 7, graph.num_nodes - 1):
            original = int(rel.to_original(internal))
            got = rel.to_original(relabeled.neighbors(internal))
            # Adjacency keeps its original within-node order.
            assert got.tolist() == graph.neighbors(original).tolist()

    def test_attributes_move_with_rows(self):
        attrs = np.arange(8, dtype=np.float32).reshape(4, 2)
        g = CSRGraph.from_edges(
            4, [(0, 1), (1, 2), (2, 3), (3, 0)], node_attr=attrs,
            edge_attr_fill=0.0,
        )
        g.edge_attr[:] = [10.0, 11.0, 12.0, 13.0]
        relabeled, rel = apply_layout(g, np.array([3, 2, 1, 0]))
        assert np.array_equal(
            relabeled.node_attr, attrs[[3, 2, 1, 0]]
        )
        # Node 3's single edge (weight 13) is now internal node 0's.
        assert relabeled.edge_attr.tolist() == [13.0, 12.0, 11.0, 10.0]

    def test_rejects_bipartite(self):
        g = CSRGraph(
            np.array([0, 1, 1]), np.array([4]), num_dst_nodes=5
        )
        with pytest.raises(ConfigurationError):
            apply_layout(g, np.array([0, 1]))

    def test_rejects_bad_order(self, graph):
        with pytest.raises(GraphError):
            apply_layout(graph, np.arange(3))


class TestBuildLocalityLayout:
    def test_methods_registry(self):
        assert LAYOUT_METHODS == ("ldg", "hash", "range")

    def test_rejects_unknown_method(self, graph):
        with pytest.raises(ConfigurationError):
            build_locality_layout(graph, 4, method="metis")

    @pytest.mark.parametrize("method", LAYOUT_METHODS)
    def test_bundle_is_consistent(self, graph, method):
        layout = build_locality_layout(graph, 4, method=method)
        assert layout.method == method
        assert layout.graph.num_nodes == graph.num_nodes
        assert layout.partitioner.num_partitions == 4
        assert int(layout.partitioner.bounds[-1]) == graph.num_nodes
        assert layout.relabeling.num_nodes == graph.num_nodes
        # Block sizes sum to the node count.
        assert int(layout.partitioner.partition_sizes().sum()) == graph.num_nodes


class TestSamplerWithRelabeling:
    @pytest.fixture(scope="class")
    def layout(self, graph):
        return build_locality_layout(graph, 4)

    def _sampler(self, layout, **kwargs):
        store = PartitionedStore(
            layout.graph, layout.partitioner, relabeling=layout.relabeling
        )
        return store, MultiHopSampler(
            store, seed=0, worker_partition=0, **kwargs
        )

    def test_store_owns_the_id_space(self, graph, layout):
        store, _ = self._sampler(layout)
        nodes = np.arange(12).reshape(3, 4)
        internal = store.to_internal(nodes)
        assert np.array_equal(internal, layout.relabeling.to_internal(nodes))
        assert np.array_equal(store.to_original(internal), nodes)
        # Without a layout both directions are the identity.
        plain = PartitionedStore(graph, HashPartitioner(4))
        assert plain.to_internal(nodes) is nodes
        assert plain.to_original(nodes) is nodes

    def test_store_rejects_a_relabeling_of_another_graph(self, graph, layout):
        with pytest.raises(ConfigurationError, match="relabeling"):
            PartitionedStore(
                graph, HashPartitioner(4), relabeling=Relabeling.identity(7)
            )

    def test_layers_are_original_ids_and_real_edges(self, graph, layout):
        rng = np.random.default_rng(0)
        request = SampleRequest(
            roots=rng.integers(0, graph.num_nodes, size=32),
            fanouts=(5, 5),
            with_attributes=True,
        )
        _, sampler = self._sampler(layout)
        result = sampler.sample(request)
        assert np.array_equal(result.layers[0], request.roots)
        # Every hop-1 pick is a true neighbor of its root in the
        # ORIGINAL graph — i.e. layers came back in original ID space.
        picks = result.layers[1].reshape(len(request.roots), 5)
        for root, row in zip(request.roots, picks):
            neighbors = set(graph.neighbors(int(root)).tolist())
            assert set(row.tolist()) <= neighbors

    def test_attributes_match_original_graph(self, graph, layout):
        request = SampleRequest(
            roots=np.arange(16), fanouts=(4,), with_attributes=True
        )
        _, sampler = self._sampler(layout)
        result = sampler.sample(request)
        for layer, attrs in zip(result.layers, result.attributes):
            assert np.array_equal(attrs, graph.node_attr[layer])

    def test_replay_parity_through_layout(self, graph, layout):
        request = SampleRequest(
            roots=np.arange(24), fanouts=(6, 4), with_attributes=True
        )
        store, sampler = self._sampler(layout)
        result = sampler.sample(request)
        fresh = PartitionedStore(
            layout.graph, layout.partitioner, relabeling=layout.relabeling
        )
        replayed = replay_reference(result, request, fresh, worker_partition=0)
        for a, b in zip(result.layers, replayed.layers):
            assert np.array_equal(a, b)
        # The per-node walk charges the layout path's layers identically.
        assert store.summary == fresh.summary

    def test_negative_sampling_in_original_space(self, graph, layout):
        _, sampler = self._sampler(layout)
        pairs = np.array([[0, 1], [2, 3], [4, 5]])
        request = NegativeSampleRequest(pairs=pairs, rate=4)
        out = sampler.negative_sample(request)
        assert out.shape == (3, 4)
        assert out.min() >= 0 and out.max() < graph.num_nodes
        for (src, _), row in zip(pairs, out):
            neighbors = set(graph.neighbors(int(src)).tolist())
            assert not set(row.tolist()) & neighbors


class TestLocalityTracking:
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

    @pytest.fixture(scope="class")
    def hash_vs_layout(self, graph):
        """One workload over the hash baseline and the LDG layout:
        ``(summary, sampled crossings)`` per side."""
        layout = build_locality_layout(graph, 4)
        # Random roots: sequential IDs would already be contiguous in
        # the original layout, hiding the renumbering win.
        rng = np.random.default_rng(0)
        request = SampleRequest(
            roots=rng.integers(0, graph.num_nodes, size=256),
            fanouts=(8, 8),
            with_attributes=True,
        )

        def run(store_graph, partitioner, relabeling):
            store = PartitionedStore(
                store_graph,
                partitioner,
                track_locality=True,
                relabeling=relabeling,
            )
            sampler = MultiHopSampler(store, seed=0, worker_partition=0)
            layers = sampler.sample(request).layers
            if relabeling is not None:
                layers = [relabeling.to_internal(layer) for layer in layers]
            # Parent->pick pairs whose owners differ: the sampled edge cut.
            crossings = sum(
                int(np.count_nonzero(
                    partitioner.partition_of(np.repeat(parents.reshape(-1), fanout))
                    != partitioner.partition_of(picks.reshape(-1))
                ))
                for parents, picks, fanout in zip(layers, layers[1:], request.fanouts)
            )
            return store.summary, crossings

        return (
            run(graph, HashPartitioner(4), None),
            run(layout.graph, layout.partitioner, layout.relabeling),
        )

    def test_layout_improves_run_length(self, hash_vs_layout):
        (base, _), (laid, _) = hash_vs_layout
        assert laid.gather_nodes == base.gather_nodes
        assert laid.mean_run_length > base.mean_run_length

    def test_layout_cuts_sampled_crossings(self, hash_vs_layout):
        (_, base), (_, laid) = hash_vs_layout
        assert laid < base


class TestSessionIntegration:
    def test_session_layout_end_to_end(self, graph):
        session = GnnSession(graph, num_partitions=4, layout="ldg")
        assert session.relabeling is not None
        rng = np.random.default_rng(1)
        roots = rng.integers(0, graph.num_nodes, size=16)
        result = session.sample(roots, fanouts=(4, 4))
        assert np.array_equal(result.layers[0], roots)
        picks = result.layers[1].reshape(16, 4)
        for root, row in zip(roots, picks):
            assert set(row.tolist()) <= set(graph.neighbors(int(root)).tolist())

    def test_session_guards(self, graph):
        with pytest.raises(ConfigurationError):
            GnnSession(graph, layout="metis")
