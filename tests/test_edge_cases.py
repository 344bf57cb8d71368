"""Edge cases and failure injection across the stack."""

import numpy as np
import pytest

from repro.axe.commands import sample_command
from repro.axe.engine import AxeEngine, EngineConfig
from repro.axe.core import CoreConfig
from repro.framework.requests import SampleRequest
from repro.framework.sampler import MultiHopSampler
from repro.graph.csr import CSRGraph
from repro.graph.generators import power_law_graph
from repro.graph.partition import HashPartitioner
from repro.memstore.store import PartitionedStore


class TestDegenerateGraphs:
    def test_engine_on_edgeless_graph(self):
        """Every node self-loops: the engine must still complete."""
        graph = CSRGraph.from_edges(
            50, [], node_attr=np.zeros((50, 4), dtype=np.float32)
        )
        engine = AxeEngine(graph, EngineConfig(num_cores=1))
        results, stats = engine.run(sample_command(np.arange(10), (3, 2)))
        for root in range(10):
            assert (results[root][1] == root).all()
            assert (results[root][2] == root).all()
        assert stats.elapsed_s > 0

    def test_sampler_on_single_node_graph(self):
        graph = CSRGraph.from_edges(
            1, [], node_attr=np.zeros((1, 2), dtype=np.float32)
        )
        store = PartitionedStore(graph, HashPartitioner(1))
        result = MultiHopSampler(store).sample(
            SampleRequest(roots=np.array([0]), fanouts=(4,))
        )
        assert (result.layers[1] == 0).all()

    def test_engine_on_star_graph(self):
        """One supernode with huge degree (the paper's supernode case:
        'such loosely coupled dataflow naturally supports the supernode
        scenario')."""
        num_leaves = 2000
        edges = [(0, leaf) for leaf in range(1, num_leaves + 1)]
        edges += [(leaf, 0) for leaf in range(1, num_leaves + 1)]
        graph = CSRGraph.from_edges(
            num_leaves + 1, edges,
            node_attr=np.zeros((num_leaves + 1, 4), dtype=np.float32),
        )
        engine = AxeEngine(graph, EngineConfig(num_cores=1))
        results, stats = engine.run(sample_command(np.array([0]), (10,)))
        assert results[0][1].shape == (10,)
        assert (results[0][1] >= 1).all()
        assert stats.elapsed_s > 0

    def test_huge_fanout_exceeds_degree(self):
        graph = power_law_graph(100, 2.0, attr_len=2, seed=0)
        store = PartitionedStore(graph, HashPartitioner(1))
        result = MultiHopSampler(store, seed=0).sample(
            SampleRequest(roots=np.array([5]), fanouts=(64,))
        )
        assert result.layers[1].shape == (1, 64)

    def test_one_hop_one_fanout(self):
        graph = power_law_graph(100, 5.0, attr_len=2, seed=0)
        engine = AxeEngine(graph, EngineConfig(num_cores=1))
        results, _stats = engine.run(sample_command(np.array([1]), (1,)))
        assert results[1][1].shape == (1,)


class TestStressConfigurations:
    def test_window_of_one(self):
        graph = power_law_graph(500, 5.0, attr_len=4, seed=0)
        config = EngineConfig(num_cores=1, core=CoreConfig(window=1, max_tags=4))
        engine = AxeEngine(graph, config)
        _results, stats = engine.run(sample_command(np.arange(16), (5,)))
        assert stats.roots == 16

    def test_more_cores_than_roots(self):
        graph = power_law_graph(500, 5.0, attr_len=4, seed=0)
        engine = AxeEngine(graph, EngineConfig(num_cores=4))
        results, stats = engine.run(sample_command(np.array([1, 2]), (3,)))
        assert set(results) == {1, 2}
        assert stats.roots == 2

    def test_batch_of_one(self):
        graph = power_law_graph(500, 5.0, attr_len=4, seed=0)
        engine = AxeEngine(graph, EngineConfig(num_cores=2))
        results, _stats = engine.run(sample_command(np.array([7]), (5, 5)))
        assert 7 in results

    def test_duplicate_roots(self):
        """The same root twice: core results are keyed by root, so the
        layers come from the last completion — both must be valid."""
        graph = power_law_graph(500, 5.0, attr_len=4, seed=0)
        engine = AxeEngine(graph, EngineConfig(num_cores=1))
        results, stats = engine.run(sample_command(np.array([3, 3]), (4,)))
        assert stats.roots == 2
        allowed = set(graph.neighbors(3).tolist()) or {3}
        assert set(results[3][1].tolist()) <= allowed


class TestNumericalRobustness:
    def test_multilabel_loss_all_ones(self):
        from repro.gnn.train import multilabel_loss

        loss, grad = multilabel_loss(np.zeros((2, 3)), np.ones((2, 3)))
        assert np.isfinite(loss)
        assert (grad < 0).all()

    def test_sage_layer_zero_input(self):
        from repro.gnn.layers import SageLayer

        layer = SageLayer(4, 4, seed=0)
        # One root and its two neighbours, stacked (sizes 1 and 2).
        out = layer.forward(np.zeros((3, 4), dtype=np.float32), (1, 2))
        assert np.isfinite(out).all()

    def test_bdi_all_0xff(self):
        from repro.mof.bdi import compress_block, decompress_block

        block = b"\xff" * 64
        assert decompress_block(compress_block(block)) == block

    def test_footprint_of_tiny_spec(self):
        from repro.graph.datasets import DatasetSpec
        from repro.memstore.layout import FootprintModel

        tiny = DatasetSpec("tiny", 10, 20, 4)
        report = FootprintModel().report(tiny)
        assert report.min_servers == 1
        assert report.total_bytes > 0
