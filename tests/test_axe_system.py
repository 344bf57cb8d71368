"""Tests for repro.axe.system (multi-card PoC simulation)."""

import numpy as np
import pytest

from repro.axe.events import Simulator
from repro.axe.loadunit import MemoryChannel
from repro.axe.engine import EngineConfig
from repro.axe.system import MultiCardSystem, PathChannel
from repro.errors import ConfigurationError
from repro.graph.generators import power_law_graph
from repro.graph.partition import HashPartitioner
from repro.memstore.links import LinkModel
from repro.mof.topology import full_mesh, ring


@pytest.fixture(scope="module")
def graph():
    return power_law_graph(4000, 8.0, attr_len=16, seed=0)


class TestPathChannel:
    def test_legs_traversed_in_order(self):
        sim = Simulator()
        fast = MemoryChannel(sim, LinkModel("fast", 1e-6, 1e12))
        slow = MemoryChannel(sim, LinkModel("slow", 5e-6, 1e12))
        done = []
        PathChannel([fast, slow]).request(64, lambda: done.append(sim.now))
        sim.run()
        assert done[0] >= 6e-6  # both latencies paid

    def test_single_leg(self):
        sim = Simulator()
        channel = MemoryChannel(sim, LinkModel("x", 1e-6, 1e12))
        done = []
        PathChannel([channel]).request(64, lambda: done.append(sim.now))
        sim.run()
        assert len(done) == 1

    def test_empty_path_rejected(self):
        with pytest.raises(ConfigurationError):
            PathChannel([])


class TestMultiCardSystem:
    def test_batch_completes(self, graph):
        system = MultiCardSystem(graph, EngineConfig(num_fpga_nodes=4))
        stats = system.run_batch(np.arange(64))
        assert stats.roots == 64
        assert sum(stats.per_card_roots) == 64
        assert stats.elapsed_s > 0

    def test_remote_traffic_crosses_fabric(self, graph):
        system = MultiCardSystem(graph, EngineConfig(num_fpga_nodes=4))
        stats = system.run_batch(np.arange(64))
        assert stats.remote_requests > 0
        assert sum(stats.fabric_bytes.values()) > 0

    def test_remote_fraction_near_three_quarters(self, graph):
        """Hash partitioning over 4 cards: ~75% of node touches remote."""
        system = MultiCardSystem(graph, EngineConfig(num_fpga_nodes=4))
        stats = system.run_batch(np.arange(128))
        assert 0.6 < stats.remote_fraction < 0.9

    def test_single_card_no_fabric(self, graph):
        system = MultiCardSystem(graph, EngineConfig(num_fpga_nodes=1))
        stats = system.run_batch(np.arange(32))
        assert stats.remote_requests == 0
        assert not stats.fabric_bytes or sum(stats.fabric_bytes.values()) == 0

    def test_four_cards_beat_one(self, graph):
        """Scaling out: 4 cards sample the same batch faster than 1,
        despite ~75% of accesses crossing the fabric."""
        one = MultiCardSystem(
            graph, EngineConfig(num_fpga_nodes=1, output_link=None)
        ).run_batch(np.arange(96))
        four = MultiCardSystem(
            graph, EngineConfig(num_fpga_nodes=4, output_link=None)
        ).run_batch(np.arange(96))
        assert four.elapsed_s < one.elapsed_s
        assert four.roots_per_second > 2 * one.roots_per_second

    def test_mesh_beats_ring(self, graph):
        """The PoC's full-mesh DAC fabric outperforms a ring with the
        same per-link bandwidth (multi-hop forwarding doubles load)."""
        config = EngineConfig(num_fpga_nodes=4, output_link=None)
        mesh_stats = MultiCardSystem(graph, config, topology=full_mesh(4)).run_batch(
            np.arange(96)
        )
        ring_stats = MultiCardSystem(graph, config, topology=ring(4)).run_batch(
            np.arange(96)
        )
        assert mesh_stats.elapsed_s <= ring_stats.elapsed_s

    def test_fabric_load_balanced_on_mesh(self, graph):
        system = MultiCardSystem(graph, EngineConfig(num_fpga_nodes=4))
        stats = system.run_batch(np.arange(256))
        volumes = np.array(list(stats.fabric_bytes.values()), dtype=float)
        assert volumes.min() > 0.3 * volumes.mean()

    def test_deterministic(self, graph):
        config = EngineConfig(num_fpga_nodes=2, seed=7)
        a = MultiCardSystem(graph, config).run_batch(np.arange(32))
        b = MultiCardSystem(graph, config).run_batch(np.arange(32))
        assert a.elapsed_s == b.elapsed_s

    def test_validation(self, graph):
        with pytest.raises(ConfigurationError):
            EngineConfig(num_fpga_nodes=0)
        with pytest.raises(ConfigurationError):
            MultiCardSystem(graph, EngineConfig(num_fpga_nodes=3), topology=full_mesh(4))
        system = MultiCardSystem(graph, EngineConfig(num_fpga_nodes=2))
        with pytest.raises(ConfigurationError):
            system.run_batch(np.array([], dtype=np.int64))


def test_routing_makes_one_partitioner_call_per_batch(graph, monkeypatch):
    """Only the batch's roots go through the partitioner (data-local
    dispatch); every memory load routes through the owner table."""
    system = MultiCardSystem(graph, EngineConfig(num_fpga_nodes=4))
    calls = []
    original = HashPartitioner.partition_of

    def counting(self, nodes):
        calls.append(len(nodes))
        return original(self, nodes)

    monkeypatch.setattr(HashPartitioner, "partition_of", counting)
    stats = system.run_batch(np.arange(32))
    assert stats.remote_requests > 0
    assert calls == [32]
