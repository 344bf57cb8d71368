"""Tests for repro.axe.core and repro.axe.engine."""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.axe.commands import Command, CommandKind, sample_command
from repro.axe.core import CoreConfig
from repro.axe.engine import AxeEngine, EngineConfig
from repro.axe.system import MultiCardSystem
from repro.errors import CommandError, ConfigurationError
from repro.graph.generators import power_law_graph
from repro.graph.partition import HashPartitioner
from repro.memstore.links import get_link
from repro.mof.topology import ring


@pytest.fixture(scope="module")
def graph():
    return power_law_graph(3000, 8.0, attr_len=16, seed=0)


@pytest.fixture
def engine(graph):
    return AxeEngine(graph, EngineConfig(num_cores=2))


class TestCoreConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CoreConfig(fanouts=())
        with pytest.raises(ConfigurationError):
            CoreConfig(sampler="magic")
        with pytest.raises(ConfigurationError):
            CoreConfig(window=0)


class TestEngineConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            EngineConfig(num_cores=0)
        with pytest.raises(ConfigurationError):
            EngineConfig(num_fpga_nodes=2, my_node=2)
        with pytest.raises(ConfigurationError):
            EngineConfig(num_fpga_nodes=4, remote_link=None)


class TestSampleCommand:
    def test_results_cover_all_roots(self, engine, graph):
        roots = np.arange(20)
        results, stats = engine.run(sample_command(roots, (5, 4)))
        assert set(results) == set(range(20))
        assert stats.roots == 20

    def test_layer_shapes(self, engine):
        results, _stats = engine.run(sample_command(np.array([3]), (5, 4)))
        layers = results[3]
        assert layers[0].shape == (1,)
        assert layers[1].shape == (5,)
        assert layers[2].shape == (20,)

    def test_sampled_nodes_are_neighbors(self, engine, graph):
        results, _stats = engine.run(sample_command(np.array([7]), (6,)))
        sampled = results[7][1]
        allowed = set(graph.neighbors(7).tolist()) or {7}
        assert set(sampled.tolist()) <= allowed

    def test_hop2_consistency(self, engine, graph):
        results, _stats = engine.run(sample_command(np.array([11]), (3, 4)))
        hop1, hop2 = results[11][1], results[11][2]
        for group, parent in enumerate(hop1):
            allowed = set(graph.neighbors(int(parent)).tolist()) or {int(parent)}
            assert set(hop2[group * 4 : (group + 1) * 4].tolist()) <= allowed

    def test_timing_positive_and_finite(self, engine):
        _results, stats = engine.run(sample_command(np.arange(16), (5, 5)))
        assert stats.elapsed_s > 0
        assert stats.roots_per_second > 0
        assert stats.events > 0

    def test_reservoir_method(self, engine):
        results, _stats = engine.run(
            sample_command(np.array([3]), (4,), method="reservoir")
        )
        assert len(results[3][1]) == 4

    def test_streaming_faster_than_reservoir(self):
        """Tech-2 end to end: on a regular graph (identical degrees, so
        identical memory traffic) with near-free memory, the streaming
        sampler engine finishes the batch measurably faster (12 vs 22
        cycles per GetSample)."""
        from repro.graph.csr import CSRGraph

        num_nodes, degree = 512, 12
        edges = [
            (v, (v + off + 1) % num_nodes)
            for v in range(num_nodes)
            for off in range(degree)
        ]
        regular = CSRGraph.from_edges(
            num_nodes, edges,
            node_attr=np.zeros((num_nodes, 4), dtype=np.float32),
        )
        config = EngineConfig(
            num_cores=1,
            core=CoreConfig(max_tags=1024, window=1),
            local_link=get_link("local_dram"),
            output_link=None,
        )
        roots = np.arange(32)
        engine = AxeEngine(regular, config)
        _r, fast = engine.run(sample_command(roots, (10, 10), method="streaming"))
        _r, slow = engine.run(sample_command(roots, (10, 10), method="reservoir"))
        assert slow.elapsed_s > 1.1 * fast.elapsed_s

    def test_more_cores_not_slower(self, graph):
        roots = np.arange(64)
        single = AxeEngine(graph, EngineConfig(num_cores=1)).run(
            sample_command(roots, (10, 10))
        )[1]
        quad = AxeEngine(graph, EngineConfig(num_cores=4)).run(
            sample_command(roots, (10, 10))
        )[1]
        assert quad.elapsed_s <= single.elapsed_s * 1.05

    def test_output_channel_can_bottleneck(self, graph):
        """The PoC observation: PCIe output caps throughput; removing it
        speeds the same batch up."""
        roots = np.arange(64)
        with_output = AxeEngine(graph, EngineConfig(num_cores=2)).run(
            sample_command(roots, (10, 10))
        )[1]
        without = AxeEngine(
            graph, EngineConfig(num_cores=2, output_link=None)
        ).run(sample_command(roots, (10, 10)))[1]
        assert without.elapsed_s < with_output.elapsed_s

    def test_multi_node_uses_remote_channel(self, graph):
        engine = AxeEngine(graph, EngineConfig(num_cores=1, num_fpga_nodes=4))
        _results, stats = engine.run(sample_command(np.arange(16), (5, 5)))
        assert stats.channel_bytes["remote"] > 0

    def test_single_node_no_remote_traffic(self, graph):
        engine = AxeEngine(graph, EngineConfig(num_cores=1, num_fpga_nodes=1))
        _results, stats = engine.run(sample_command(np.arange(8), (5,)))
        assert "remote" not in stats.channel_bytes

    def test_deterministic(self, graph):
        config = EngineConfig(num_cores=2, seed=3)
        a = AxeEngine(graph, config).run(sample_command(np.arange(8), (5,)))
        b = AxeEngine(graph, config).run(sample_command(np.arange(8), (5,)))
        assert a[1].elapsed_s == b[1].elapsed_s
        assert all(
            np.array_equal(a[0][root][1], b[0][root][1]) for root in range(8)
        )


class TestOtherCommands:
    def test_csr_roundtrip(self, engine):
        engine.run(Command(kind=CommandKind.SET_CSR, csr_index=5, csr_value=77))
        value, _stats = engine.run(Command(kind=CommandKind.READ_CSR, csr_index=5))
        assert value == 77

    def test_csr_index_range(self):
        with pytest.raises(CommandError):
            Command(kind=CommandKind.SET_CSR, csr_index=32)

    def test_read_node_attribute(self, engine, graph):
        nodes = np.array([1, 5, 9])
        values, stats = engine.run(
            Command(kind=CommandKind.READ_NODE_ATTRIBUTE, nodes=nodes)
        )
        assert np.allclose(values, graph.node_attr[nodes])
        assert stats.elapsed_s > 0

    def test_read_edge_attribute_known_edge(self, engine, graph):
        src = 0
        dst = int(graph.neighbors(src)[0])
        pairs = np.array([[src, dst], [src, graph.num_nodes - 1]])
        weights, _stats = engine.run(
            Command(kind=CommandKind.READ_EDGE_ATTRIBUTE, nodes=pairs)
        )
        assert weights[0] == 1.0  # unweighted graph: existing edge
        # second pair may or may not be an edge; must be 1.0 or NaN
        assert weights[1] == 1.0 or np.isnan(weights[1])

    def test_negative_sample(self, engine, graph):
        pairs = np.array([[2, 3], [4, 5]])
        negatives, _stats = engine.run(
            Command(kind=CommandKind.NEGATIVE_SAMPLE, nodes=pairs, rate=8)
        )
        assert negatives.shape == (2, 8)
        for row, (src, _dst) in enumerate(pairs):
            forbidden = set(graph.neighbors(int(src)).tolist()) | {int(src)}
            assert not (set(negatives[row].tolist()) & forbidden)

    def test_command_validation(self):
        with pytest.raises(CommandError):
            Command(kind=CommandKind.SAMPLE_N_HOP, nodes=np.array([1]), fanouts=())
        with pytest.raises(CommandError):
            Command(kind=CommandKind.NEGATIVE_SAMPLE, nodes=np.array([[1, 2]]), rate=0)
        with pytest.raises(CommandError):
            Command(
                kind=CommandKind.READ_EDGE_ATTRIBUTE, nodes=np.array([1, 2, 3])
            )

    def test_batches_per_second_helper(self, engine):
        _results, stats = engine.run(sample_command(np.arange(8), (5,)))
        assert stats.batches_per_second(8) == pytest.approx(
            stats.roots_per_second / 8
        )


class TestEdgeWeightFetch:
    """Table 4: sample n-hop with or without edge attributes."""

    def test_edge_weights_add_traffic(self, graph):
        import dataclasses as dc
        from repro.axe.commands import Command, CommandKind

        roots = np.arange(32)
        engine = AxeEngine(graph, EngineConfig(num_cores=1, output_link=None))
        plain = Command(
            kind=CommandKind.SAMPLE_N_HOP, nodes=roots, fanouts=(5, 5),
            with_attributes=False,
        )
        weighted = Command(
            kind=CommandKind.SAMPLE_N_HOP, nodes=roots, fanouts=(5, 5),
            with_attributes=False, with_edge_attributes=True,
        )
        _r, plain_stats = engine.run(plain)
        _r, weighted_stats = engine.run(weighted)
        plain_bytes = sum(plain_stats.channel_bytes.values())
        weighted_bytes = sum(weighted_stats.channel_bytes.values())
        assert weighted_bytes > plain_bytes

    def test_functional_contract_preserved(self, graph):
        """Edge-weight fetching changes timing, not the sampling
        contract: shapes and neighbor-membership still hold."""
        from repro.axe.commands import Command, CommandKind

        roots = np.arange(8)
        engine = AxeEngine(graph, EngineConfig(num_cores=1, seed=5))
        with_w, _s = engine.run(
            Command(
                kind=CommandKind.SAMPLE_N_HOP, nodes=roots, fanouts=(4,),
                with_edge_attributes=True,
            )
        )
        for root in range(8):
            sampled = with_w[root][1]
            assert sampled.shape == (4,)
            allowed = set(graph.neighbors(root).tolist()) or {root}
            assert set(sampled.tolist()) <= allowed


class TestOnFpgaReduction:
    """§4.1: VPU reduction before output cuts the PCIe bottleneck."""

    def test_reduced_output_fewer_bytes(self, graph):
        import dataclasses as dc

        roots = np.arange(32)

        def run(reduce_output):
            config = EngineConfig(
                num_cores=1,
                core=CoreConfig(reduce_output=reduce_output),
            )
            _r, stats = AxeEngine(graph, config).run(
                sample_command(roots, (10, 10))
            )
            return stats

        raw = run(False)
        reduced = run(True)
        assert reduced.channel_bytes["output"] < 0.2 * raw.channel_bytes["output"]

    def test_reduction_relieves_output_bottleneck(self, graph):
        """With the PoC output-bound at PCIe, on-FPGA aggregation gives
        a large throughput win (the paper's GCN argument)."""
        roots = np.arange(48)
        raw = AxeEngine(
            graph, EngineConfig(num_cores=2, core=CoreConfig())
        ).run(sample_command(roots, (10, 10)))[1]
        reduced = AxeEngine(
            graph, EngineConfig(num_cores=2, core=CoreConfig(reduce_output=True))
        ).run(sample_command(roots, (10, 10)))[1]
        assert reduced.roots_per_second > 1.5 * raw.roots_per_second


def _canonical(value):
    """A repr-stable rendering: arrays by dtype/shape/bytes, floats exact."""
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes().hex())
    if dataclasses.is_dataclass(value):
        return _canonical(dataclasses.asdict(value))
    if isinstance(value, dict):
        return sorted((_canonical(k), _canonical(v)) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    return value


def digest(value) -> str:
    """SHA-256 over a command result and every field of its stats."""
    return hashlib.sha256(repr(_canonical(value)).encode()).hexdigest()


GOLDEN_ROOTS = np.random.default_rng(11).integers(0, 3000, size=64)
GOLDEN_PAIRS = GOLDEN_ROOTS[:24].reshape(12, 2)
GOLDEN_FANOUTS = (10, 5)
#: The PoC point a default ``GnnSession`` builds: 2 cores, 4 FPGA nodes.
POC = EngineConfig(num_cores=2, num_fpga_nodes=4)


def _sample(graph, config=POC, **command):
    return AxeEngine(graph, config).run(
        Command(
            kind=CommandKind.SAMPLE_N_HOP,
            nodes=GOLDEN_ROOTS,
            fanouts=GOLDEN_FANOUTS,
            **command,
        )
    )


def _command(graph, kind, nodes, **command):
    return AxeEngine(graph, POC).run(Command(kind=kind, nodes=nodes, **command))


def _system(graph, **topology):
    config = EngineConfig(num_fpga_nodes=4, core=CoreConfig(fanouts=GOLDEN_FANOUTS))
    return MultiCardSystem(graph, config, **topology).run_batch(GOLDEN_ROOTS)


GOLDEN_RUNS = {
    "poc": lambda g: _sample(g),
    "one_node": lambda g: _sample(g, dataclasses.replace(POC, num_fpga_nodes=1)),
    "in_order": lambda g: _sample(
        g, dataclasses.replace(POC, core=CoreConfig(in_order=True))
    ),
    "tag_limited": lambda g: _sample(
        g, dataclasses.replace(POC, core=CoreConfig(max_tags=8))
    ),
    "reservoir": lambda g: _sample(g, method="reservoir"),
    "edge_attributes": lambda g: _sample(g, with_edge_attributes=True),
    "read_node_attribute": lambda g: _command(
        g, CommandKind.READ_NODE_ATTRIBUTE, GOLDEN_ROOTS
    ),
    "read_edge_attribute": lambda g: _command(
        g, CommandKind.READ_EDGE_ATTRIBUTE, GOLDEN_PAIRS
    ),
    "negative_sample": lambda g: _command(
        g, CommandKind.NEGATIVE_SAMPLE, GOLDEN_PAIRS, rate=5
    ),
    "system_mesh": lambda g: _system(g),
    "system_ring": lambda g: _system(g, topology=ring(4)),
}

#: A change to how the simulator runs (not to what it simulates) must
#: leave every digest equal.
GOLDEN_DIGESTS = {
    "edge_attributes": "6da463ed23edce92e50b1bc92d2b5aa3ef3ad63b3e5cd332b97690a27d76f18b",
    "in_order": "1d41491b3d246bb704355822a6773de799048dadbe3738488e39f3a230b96e78",
    "negative_sample": "0f9ab6a76d80315d58d6ee7786a3d62bd8ca748d42466b09a85a85dbfd6e3ce9",
    "one_node": "02e7b6b3862fb666e1bde05113a82bfcdff97c4a27b34f1d29a9d74d6197a741",
    "poc": "4268a1f62ee5ee3193ed98f143846df7ada8fba4741a5de461dc19c68d382aeb",
    "read_edge_attribute": "926fb9fd4d42edc23a6313282fbf24cbbb90934f27e38cf16457f2298c7fcf82",
    "read_node_attribute": "c5c70083ce87e7067ec1f226a3acc37579b1531dd9f19c76b9a7d6b0fdf9019d",
    "reservoir": "6e6077050fb04d41c03588196d6b53fc9d16408f35a84f6ff68ebb254c3f5894",
    "system_mesh": "8079d919d42302b94fdd4f28a645e329549c154be4d27dcda3c7960726a32153",
    "system_ring": "af3ebae6ef1bf37ef06fd81fadeebc7901da4622d92a69bd4cd43cf77aef4a75",
    "tag_limited": "0e073537745062b6757d4c2ffe5e185f3e2e6845d6c4e2374e60e4d65a40c640",
}


class TestGoldenDigests:
    """Every simulated event of the engine and the multi-card system is
    pinned through the results and stats it produces: the tag-file wait
    queue, in-order delivery, both samplers, edge-weight fetches, the
    non-sampling commands and single- and multi-hop fabric paths."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
    def test_digest(self, graph, name):
        assert digest(GOLDEN_RUNS[name](graph)) == GOLDEN_DIGESTS[name]


def test_routing_makes_no_partitioner_calls(graph, monkeypatch):
    """Ownership is a table built with the engine, not a NumPy call per
    memory load."""
    engine = AxeEngine(graph, POC)
    calls = []
    original = HashPartitioner.partition_of

    def counting(self, nodes):
        calls.append(len(nodes))
        return original(self, nodes)

    monkeypatch.setattr(HashPartitioner, "partition_of", counting)
    roots = np.random.default_rng(5).integers(0, graph.num_nodes, size=64)
    _results, stats = engine.run(sample_command(roots, (10, 10)))
    assert stats.channel_bytes["remote"] > 0
    assert calls == []
