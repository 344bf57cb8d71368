"""The sampler's attribute payload: distinct rows plus a layer index.

``SampleResult`` ships each layer's deduplicated attribute rows
(``attribute_rows``) and the index that places them
(``attribute_index``); ``attributes`` rebuilds the per-occurrence
tensor on read. The golden digests below were taken over ``layers``
and the dense ``attributes`` bytes when every sampler still built that
tensor eagerly, so they pin that the payload change moved no bit.
``second`` is the same sampler sampling one request twice: its second
result draws on the advanced RNG stream.
"""

import hashlib

import numpy as np
import pytest

from repro.framework.replay import ReferenceWalkSampler
from repro.framework.requests import SampleRequest
from repro.framework.sampler import MultiHopSampler
from repro.graph.datasets import instantiate_dataset
from repro.graph.dynamic import DynamicGraph
from repro.graph.partition import HashPartitioner, RangePartitioner
from repro.memstore.faults import FaultInjector, FaultStats, ReliableReadPath
from repro.memstore.ingest import DynamicPartitionedStore, growth_trace
from repro.memstore.replication import ReplicaPlacement
from repro.memstore.retry import RetryPolicy
from repro.memstore.store import AccessSummary, PartitionedStore
from repro.parallel import ParallelSampler

NODES = 2000
FANOUTS = (10, 10)

GOLDEN = {
    "plain": "2bcb3aac92f57718b0f370505b04a9b1e1b95dbd159e5f9d18f5945265420ae6",
    "second": "6c8ee4219c6ec66403c1ffc291c78a191248a028681b3f3aa005dddcf7df0e2e",
    "degraded": "a981d1677dbd1abd196191ad2904abe1c09021455c6eefc9c1b9f648d4362c65",
    "dynamic": "b57dee13bd8af716e7d2961775f57f17c756177ef1dbee297be89bd51a3f18a2",
    "parallel_w0": "1e38522d5c5bde9d0cf949a5f7aa4726a8512652bdc0176d522f93cb3418a57a",
    "walk": "caca9f5363efd4886e0b5d76eddfb15c6c5a26ef3f1f4f133c979d35480894e2",
}


@pytest.fixture(scope="module")
def graph():
    return instantiate_dataset("ll", max_nodes=NODES, seed=0)


def wide_request(num_nodes, roots=256, seed=0):
    rng = np.random.default_rng(seed)
    return SampleRequest(
        roots=rng.integers(0, num_nodes, size=roots),
        fanouts=FANOUTS,
        with_attributes=True,
    )


def digest(result):
    """SHA-256 over every layer and every dense attribute layer."""
    h = hashlib.sha256()
    for array in result.layers + result.attributes:
        h.update(f"{array.dtype}{array.shape}".encode())
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def degraded_sampler(graph):
    """Partition 1 of 2 has its only replica dead; reads degrade."""
    partitioner = RangePartitioner(2, graph.num_nodes)
    injector = FaultInjector()
    path = ReliableReadPath(
        ReplicaPlacement(2, 1), RetryPolicy(hedge=False), injector,
        seed=0, jitter_sigma=0.0,
    )
    injector.kill_replica(1, 0)
    store = PartitionedStore(graph, partitioner, reliability=path)
    return MultiHopSampler(store, seed=3, worker_partition=0, degraded_ok=True)


def sample_case(name, graph):
    """The result(s) each golden case pins, by case name."""
    request = wide_request(graph.num_nodes)
    if name == "plain":
        store = PartitionedStore(graph, HashPartitioner(4))
        return MultiHopSampler(store, seed=0, worker_partition=0).sample(request)
    if name == "second":
        store = PartitionedStore(graph, HashPartitioner(4))
        sampler = MultiHopSampler(store, seed=0, worker_partition=0)
        sampler.sample(request)
        return sampler.sample(request)
    if name == "degraded":
        sampler = degraded_sampler(graph)
        result = sampler.sample(wide_request(graph.num_nodes, roots=64))
        assert sampler.degraded_fallbacks > 0
        assert any((layer == 0).all(axis=-1).any() for layer in result.attributes)
        return result
    if name == "dynamic":
        store = DynamicPartitionedStore(
            DynamicGraph(graph, compact_threshold=10_000), HashPartitioner(4)
        )
        store.apply(growth_trace(graph.num_nodes, 400, seed=0)[:200])
        return MultiHopSampler(store, seed=0, worker_partition=0).sample(
            wide_request(store.graph.num_nodes)
        )
    if name == "parallel_w0":
        store = PartitionedStore(graph, HashPartitioner(4))
        sampler = ParallelSampler(store, workers=0, seed=0, worker_partition=0)
        try:
            return sampler.collect(sampler.submit(request))
        finally:
            sampler.close()
    if name == "walk":
        store = PartitionedStore(graph, HashPartitioner(4))
        return ReferenceWalkSampler(store, seed=0, worker_partition=0).sample(
            wide_request(graph.num_nodes, roots=16)
        )
    raise KeyError(name)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_payload(graph, name):
    assert digest(sample_case(name, graph)) == GOLDEN[name]


def test_reliable_loop_pin(graph):
    """The store's per-occurrence reliable-read loop, pinned bit-exact.

    Request loss, hedging and latency jitter all draw on the fault
    path's generators, so any change in the order the loop issues its
    remote reads moves the fault counters, the fallbacks, and with them
    the sampled layers and zeroed rows.
    """
    injector = FaultInjector(seed=0, loss_rate=0.2)
    path = ReliableReadPath(ReplicaPlacement(4, 2), RetryPolicy(), injector, seed=0)
    injector.kill_replica(1, 0)
    store = PartitionedStore(graph, HashPartitioner(4), reliability=path)
    sampler = MultiHopSampler(store, seed=5, worker_partition=0, degraded_ok=True)
    result = sampler.sample(wide_request(graph.num_nodes, roots=64))
    assert digest(result) == (
        "2c49ed9b62cccaccb91e7411fbe429c4af9d346f358b09b5906f037e475d93fe"
    )
    assert store.summary == AccessSummary(
        structure_count=9173, structure_bytes=236704,
        attribute_count=7061, attribute_bytes=4293088,
        remote_count=12331, remote_bytes=3447032,
    )
    assert path.stats == FaultStats(
        reads=12392, attempts=15501, retries=3109, timeouts=3152,
        hedges=5901, hedge_wins=2771, failovers=4882, failed_reads=43,
        busy_s=0.5754089539416681,
    )
    assert sampler.degraded_fallbacks == 43


def wide_sampler(graph):
    """An undegraded sampler over ``graph``."""
    store = PartitionedStore(graph, HashPartitioner(4))
    return MultiHopSampler(store, seed=1, worker_partition=0)


class TestPayloadShape:
    def test_distinct_rows_and_layer_shaped_index(self, graph):
        sampler = wide_sampler(graph)
        request = wide_request(graph.num_nodes, roots=64, seed=2)
        for result in (sampler.sample(request), sampler.sample(request)):
            assert len(result.attribute_rows) == len(result.layers) == 3
            for k, layer in enumerate(result.layers):
                rows = result.attribute_rows[k]
                assert rows.shape == (np.unique(layer).size, graph.attr_len)
                assert result.attribute_index[k].shape == layer.shape
                assert np.array_equal(result.attributes[k], graph.node_attr[layer])

    def test_parallel_collect_carries_the_payload(self, graph):
        store = PartitionedStore(graph, HashPartitioner(4))
        sampler = ParallelSampler(store, workers=0, seed=0, worker_partition=0)
        try:
            result = sampler.collect(sampler.submit(wide_request(graph.num_nodes, 32)))
        finally:
            sampler.close()
        for layer, rows, index in zip(
            result.layers, result.attribute_rows, result.attribute_index
        ):
            assert rows.shape[0] == np.unique(layer).size
            assert index.shape == layer.shape

    def test_walk_ships_one_row_per_occurrence(self, graph):
        store = PartitionedStore(graph, HashPartitioner(4))
        result = ReferenceWalkSampler(store, seed=0).sample(
            wide_request(graph.num_nodes, roots=8)
        )
        for layer, rows, index in zip(
            result.layers, result.attribute_rows, result.attribute_index
        ):
            assert rows.shape == (layer.size, graph.attr_len)
            assert np.array_equal(index, np.arange(layer.size).reshape(layer.shape))

    @pytest.mark.parametrize(
        "sampler_cls", [MultiHopSampler, ReferenceWalkSampler]
    )
    def test_without_attributes_all_three_are_none(self, graph, sampler_cls):
        store = PartitionedStore(graph, HashPartitioner(4))
        request = SampleRequest(
            roots=np.arange(8), fanouts=(3, 2), with_attributes=False
        )
        result = sampler_cls(store, seed=0).sample(request)
        assert result.attribute_rows is None
        assert result.attribute_index is None
        assert result.attributes is None

    def test_every_read_is_a_fresh_tensor(self, graph):
        result = wide_sampler(graph).sample(wide_request(graph.num_nodes, roots=16))
        rows_before = [rows.copy() for rows in result.attribute_rows]
        first = result.attributes
        dense = [attrs.copy() for attrs in first]
        for attrs in first:
            attrs[...] = -1.0
        second = result.attributes
        for want, got, mine in zip(dense, second, first):
            assert np.array_equal(want, got)
            assert not np.shares_memory(got, mine)
        for want, rows in zip(rows_before, result.attribute_rows):
            assert np.array_equal(want, rows)
