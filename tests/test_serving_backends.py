"""Tests for repro.serving.backends (software + AxE wrappers)."""

import numpy as np
import pytest

from repro.axe.commands import sample_command
from repro.axe.engine import AxeEngine, EngineConfig
from repro.errors import ConfigurationError
from repro.framework.sampler import MultiHopSampler
from repro.graph.generators import power_law_graph
from repro.graph.partition import HashPartitioner
from repro.memstore.store import PartitionedStore
from repro.parallel import ParallelSampler
from repro.serving.backends import (
    BATCHED_SPEEDUP,
    HardwareBackend,
    SoftwareBackend,
    nodes_per_root,
)


@pytest.fixture(scope="module")
def graph():
    return power_law_graph(400, 6.0, attr_len=4, seed=0)


@pytest.fixture
def sampler(graph):
    return MultiHopSampler(PartitionedStore(graph, HashPartitioner(2)), seed=0)


@pytest.fixture
def engine(graph):
    return AxeEngine(graph, EngineConfig(num_cores=1, output_link=None))


class TestNodesPerRoot:
    def test_matches_geometric_sum(self):
        assert nodes_per_root((5, 5)) == 1 + 5 + 25
        assert nodes_per_root((10,)) == 11
        assert nodes_per_root(()) == 1


class TestSoftwareBackend:
    def test_functional_payload(self, sampler):
        backend = SoftwareBackend(sampler, functional=True)
        result = backend.execute(np.array([1, 2, 3]), (4, 2))
        assert result.payload is not None
        assert result.payload.layers[2].shape == (3, 8)
        assert result.service_s > 0

    def test_timing_only(self, sampler):
        backend = SoftwareBackend(sampler, functional=False)
        result = backend.execute(np.array([1, 2]), (4,))
        assert result.payload is None
        expected = (
            backend.base_overhead_s
            + 2 * 5 * backend.per_key_s / BATCHED_SPEEDUP / backend.parallelism
        )
        assert result.service_s == pytest.approx(expected)

    def test_service_time_scales_with_batch(self, sampler):
        backend = SoftwareBackend(sampler, functional=False)
        small = backend.execute(np.array([1]), (5, 5)).service_s
        large = backend.execute(np.arange(16), (5, 5)).service_s
        assert large > small

    def test_workers_earn_no_speedup(self, graph):
        """Shard workers measure slower than inline sampling on one
        host, so the cost model credits them nothing."""
        store = PartitionedStore(graph, HashPartitioner(2))
        with ParallelSampler(store, workers=2, seed=0) as engine:
            backend = SoftwareBackend(engine, functional=False)
            assert backend.sampling_speedup() == BATCHED_SPEEDUP

    def test_validation(self, sampler):
        with pytest.raises(ConfigurationError):
            SoftwareBackend(sampler, concurrency=0)
        with pytest.raises(ConfigurationError):
            SoftwareBackend(sampler, per_key_s=0)
        with pytest.raises(ConfigurationError):
            SoftwareBackend(sampler, parallelism=0)


class TestHardwareBackend:
    def test_functional_runs_engine(self, engine):
        backend = HardwareBackend(engine, functional=True)
        result = backend.execute(np.array([1, 2, 3, 4]), (3, 2))
        assert set(result.payload.keys()) == {1, 2, 3, 4}
        assert result.service_s > backend.dispatch_overhead_s

    def test_timing_only_is_calibrated(self, engine):
        backend = HardwareBackend(engine, functional=False)
        small = backend.execute(np.arange(4), (3, 2)).service_s
        large = backend.execute(np.arange(32), (3, 2)).service_s
        assert small > 0
        assert large > small
        # Model agrees with a measured run within 2x either way.
        _res, stats = engine.run(sample_command(np.arange(32), (3, 2)))
        measured = backend.dispatch_overhead_s + stats.elapsed_s
        assert 0.5 * measured < large < 2.0 * measured

    def test_calibration_cached_per_fanouts(self, engine):
        backend = HardwareBackend(engine, functional=False)
        backend.execute(np.arange(4), (3, 2))
        backend.execute(np.arange(4), (2, 2))
        assert set(backend._calibration) == {(3, 2), (2, 2)}

    def test_fault_hook(self, engine):
        backend = HardwareBackend(engine)
        assert backend.healthy
        backend.fail()
        assert not backend.healthy
        backend.restore()
        assert backend.healthy

    def test_validation(self, engine):
        with pytest.raises(ConfigurationError):
            HardwareBackend(engine, concurrency=0)
        with pytest.raises(ConfigurationError):
            HardwareBackend(engine, dispatch_overhead_s=0)
