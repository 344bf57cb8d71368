"""Tests for repro.framework.sampler."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.framework.requests import NegativeSampleRequest, SampleRequest
from repro.framework.sampler import MultiHopSampler
from repro.framework.selectors import select_streaming
from repro.graph.csr import CSRGraph
from repro.graph.generators import power_law_graph
from repro.graph.partition import HashPartitioner
from repro.memstore.store import PartitionedStore


@pytest.fixture
def sampler():
    graph = power_law_graph(500, 8.0, attr_len=6, seed=0)
    store = PartitionedStore(graph, HashPartitioner(4))
    return MultiHopSampler(store, seed=1)


class TestSampling:
    def test_layer_shapes(self, sampler):
        request = SampleRequest(roots=np.array([1, 2, 3]), fanouts=(4, 3))
        result = sampler.sample(request)
        assert result.layers[0].shape == (3,)
        assert result.layers[1].shape == (3, 4)
        assert result.layers[2].shape == (3, 12)

    def test_sampled_are_neighbors(self, sampler):
        request = SampleRequest(roots=np.array([5]), fanouts=(8,))
        result = sampler.sample(request)
        graph = sampler.store.graph
        neighbors = set(graph.neighbors(5).tolist()) or {5}
        assert set(result.layers[1].reshape(-1).tolist()) <= neighbors

    def test_second_hop_from_first(self, sampler):
        request = SampleRequest(roots=np.array([5]), fanouts=(2, 3))
        result = sampler.sample(request)
        graph = sampler.store.graph
        hop1 = result.layers[1][0]
        for group, parent in enumerate(hop1):
            allowed = set(graph.neighbors(int(parent)).tolist()) or {int(parent)}
            sampled = result.layers[2][0, group * 3 : (group + 1) * 3]
            assert set(sampled.tolist()) <= allowed

    def test_zero_degree_self_loop(self):
        graph = CSRGraph.from_edges(3, [], node_attr=np.zeros((3, 2), dtype=np.float32))
        store = PartitionedStore(graph, HashPartitioner(1))
        sampler = MultiHopSampler(store)
        result = sampler.sample(SampleRequest(roots=np.array([1]), fanouts=(4,)))
        assert (result.layers[1] == 1).all()

    def test_attributes_fetched(self, sampler):
        request = SampleRequest(roots=np.array([1, 2]), fanouts=(3,))
        result = sampler.sample(request)
        assert result.attributes is not None
        assert result.attributes[0].shape == (2, 6)  # roots are a 1-D layer
        assert result.attributes[1].shape == (2, 3, 6)

    def test_attribute_values_match_graph(self, sampler):
        request = SampleRequest(roots=np.array([7]), fanouts=(2,))
        result = sampler.sample(request)
        graph = sampler.store.graph
        expected = graph.node_attr[result.layers[1][0]]
        assert np.allclose(result.attributes[1][0], expected)

    def test_without_attributes(self, sampler):
        request = SampleRequest(
            roots=np.array([1]), fanouts=(3,), with_attributes=False
        )
        assert sampler.sample(request).attributes is None

    def test_rejects_out_of_range_roots(self, sampler):
        request = SampleRequest(roots=np.array([10_000]), fanouts=(2,))
        with pytest.raises(GraphError):
            sampler.sample(request)

    def test_deterministic_with_seed(self):
        graph = power_law_graph(200, 6.0, seed=0)
        store = PartitionedStore(graph, HashPartitioner(2))
        request = SampleRequest(
            roots=np.array([1, 2]), fanouts=(5,), with_attributes=False
        )
        a = MultiHopSampler(store, seed=9).sample(request)
        b = MultiHopSampler(store, seed=9).sample(request)
        assert np.array_equal(a.layers[1], b.layers[1])

    def test_streaming_selector_plugs_in(self):
        graph = power_law_graph(200, 6.0, seed=0)
        store = PartitionedStore(graph, HashPartitioner(2))
        sampler = MultiHopSampler(store, seed=1, selector=select_streaming)
        request = SampleRequest(
            roots=np.array([3]), fanouts=(4,), with_attributes=False
        )
        result = sampler.sample(request)
        neighbors = set(graph.neighbors(3).tolist()) or {3}
        assert set(result.layers[1].reshape(-1).tolist()) <= neighbors


class TestNegativeSampling:
    def test_negatives_are_non_neighbors(self, sampler):
        pairs = np.array([[1, 2], [3, 4]])
        negatives = sampler.negative_sample(NegativeSampleRequest(pairs=pairs, rate=6))
        assert negatives.shape == (2, 6)
        graph = sampler.store.graph
        for row, (src, _dst) in enumerate(pairs):
            forbidden = set(graph.neighbors(int(src)).tolist()) | {int(src)}
            assert not (set(negatives[row].tolist()) & forbidden)

    def test_negatives_within_graph(self, sampler):
        pairs = np.array([[0, 1]])
        negatives = sampler.negative_sample(NegativeSampleRequest(pairs=pairs, rate=10))
        assert negatives.min() >= 0
        assert negatives.max() < sampler.store.graph.num_nodes
