"""Tests for repro.memstore.ingest (online-mutation store)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.framework.replay import ReferenceWalkSampler, replay_reference
from repro.framework.requests import SampleRequest
from repro.framework.sampler import MultiHopSampler
from repro.graph.csr import CSRGraph
from repro.graph.dynamic import DynamicGraph
from repro.graph.generators import power_law_graph
from repro.graph.partition import HashPartitioner
from repro.memstore.ingest import (
    EDGE,
    NODE,
    DynamicPartitionedStore,
    Mutation,
    growth_trace,
)
from repro.memstore.store import PartitionedStore


def make_graph(num_nodes=64, attr_len=4, seed=0):
    return power_law_graph(num_nodes, 4.0, attr_len=attr_len, seed=seed)


def make_store(graph=None, compact_threshold=10_000, partitions=2):
    graph = graph if graph is not None else make_graph()
    dynamic = DynamicGraph(graph, compact_threshold=compact_threshold)
    return DynamicPartitionedStore(dynamic, HashPartitioner(partitions))


class TestMutation:
    def test_kind_validation(self):
        with pytest.raises(ConfigurationError):
            Mutation("swap", src=0, dst=1)

    def test_growth_trace_deterministic(self):
        a = growth_trace(32, 50, seed=3)
        b = growth_trace(32, 50, seed=3)
        assert a == b
        assert len(a) == 50

    def test_growth_trace_timeline(self):
        trace = growth_trace(32, 10, duration_s=1.0, seed=0)
        times = [m.time_s for m in trace]
        assert times == sorted(times)
        assert times[0] == 0.0
        assert times[-1] < 1.0

    def test_growth_trace_validation(self):
        with pytest.raises(ConfigurationError):
            growth_trace(0, 10)
        with pytest.raises(ConfigurationError):
            growth_trace(10, -1)
        with pytest.raises(ConfigurationError):
            growth_trace(10, 10, new_node_probability=2.0)

    def test_node_mutation_with_attach(self):
        store = make_store(CSRGraph.from_edges(4, [(0, 1)]))
        store.apply([Mutation(NODE, attach_to=1)])
        assert store.view.num_nodes == 5
        assert store.get_neighbors(4).tolist() == [1]
        assert store.ingest_stats.nodes_added == 1
        assert store.ingest_stats.edges_added == 1


class TestConstruction:
    def test_rejects_reliability(self):
        dynamic = DynamicGraph(make_graph())
        with pytest.raises(ConfigurationError):
            # Rejected before the path is ever exercised, so any
            # non-None stand-in triggers the gate.
            DynamicPartitionedStore(
                dynamic, HashPartitioner(2), reliability=object()
            )

    def test_view_tracks_live_epoch(self):
        store = make_store()
        assert store.epoch == 0
        store.apply([Mutation(EDGE, src=0, dst=1)])
        assert store.epoch == 1


class TestRateZeroParity:
    """With zero mutations the dynamic store must be byte-identical to
    a static PartitionedStore over the same CSR."""

    def test_walk_parity(self):
        graph = make_graph()
        static = PartitionedStore(graph, HashPartitioner(2))
        dynamic = make_store(graph)
        request = SampleRequest(roots=np.arange(8), fanouts=(4, 3))
        # The oracle is the only sampler on the per-node store reads.
        res_s = ReferenceWalkSampler(static, seed=0).sample(request)
        res_d = ReferenceWalkSampler(dynamic, seed=0).sample(request)
        for a, b in zip(res_s.layers, res_d.layers):
            assert np.array_equal(a, b)
        for a, b in zip(res_s.attributes, res_d.attributes):
            assert np.array_equal(a, b)
        assert static.summary == dynamic.summary

    def test_batched_parity(self):
        graph = make_graph()
        static = PartitionedStore(graph, HashPartitioner(2))
        dynamic = make_store(graph)
        request = SampleRequest(roots=np.arange(16), fanouts=(5, 2))
        res_s = MultiHopSampler(static, seed=1).sample(request)
        res_d = MultiHopSampler(dynamic, seed=1).sample(request)
        for a, b in zip(res_s.layers, res_d.layers):
            assert np.array_equal(a, b)
        for a, b in zip(res_s.attributes, res_d.attributes):
            assert np.array_equal(a, b)
        assert static.summary == dynamic.summary

    def test_replay_parity_rate_zero(self):
        graph = make_graph()
        dynamic = make_store(graph)
        request = SampleRequest(roots=np.arange(8), fanouts=(4,))
        result = MultiHopSampler(dynamic, seed=0).sample(request)
        fresh = make_store(graph)
        replay_reference(result, request, fresh)
        assert fresh.summary == dynamic.summary


class TestDeltaAccounting:
    def test_delta_hit_counters(self):
        store = make_store(CSRGraph.from_edges(4, [(0, 1)]))
        store.apply([Mutation(EDGE, src=0, dst=2), Mutation(EDGE, src=0, dst=3)])
        store.get_neighbors(0)
        assert store.ingest_stats.delta_hits == 1
        assert store.ingest_stats.delta_edges_read == 2

    def test_delta_adds_one_structure_access(self):
        base = CSRGraph.from_edges(4, [(0, 1)])
        static = PartitionedStore(base, HashPartitioner(2))
        static.get_neighbors(0)
        store = make_store(base)
        store.apply([Mutation(EDGE, src=0, dst=2)])
        store.get_neighbors(0)
        # index + offsets + base block + one extra delta block
        assert store.summary.structure_count == static.summary.structure_count + 1
        assert (
            store.summary.structure_bytes
            == static.summary.structure_bytes + 1 * store.id_bytes
        )

    def test_batched_matches_walk_accounting(self):
        graph = make_graph(32)
        store_a = make_store(graph)
        store_b = make_store(graph)
        trace = growth_trace(32, 40, seed=5)
        store_a.apply(trace)
        store_b.apply(trace)
        nodes = list(range(store_a.view.num_nodes))
        batch = store_a.get_neighbors_batch(nodes)
        for i, node in enumerate(nodes):
            walked = store_b.get_neighbors(node)
            assert batch[i].tolist() == walked.tolist()
        assert store_a.summary == store_b.summary
        assert store_a.ingest_stats.delta_hits == store_b.ingest_stats.delta_hits
        assert (
            store_a.ingest_stats.delta_edges_read
            == store_b.ingest_stats.delta_edges_read
        )

    def test_delta_hits_grow_with_mutation_rate(self):
        """Mutations interleaved with batched sampling: no append-log
        traffic at rate 0, and more of it the faster the graph grows."""
        graph = make_graph(256)
        rng = np.random.default_rng(0)
        requests = [
            SampleRequest(roots=rng.integers(0, 256, size=32), fanouts=(4, 3))
            for _ in range(4)
        ]
        hits = []
        for rate in (0, 8, 32, 128):
            store = make_store(graph)
            sampler = MultiHopSampler(store, seed=0)
            trace = growth_trace(256, rate * len(requests), seed=1)
            for i, request in enumerate(requests):
                store.apply(trace[i * rate : (i + 1) * rate])
                sampler.sample(request)
                assert len(store.last_sample_epochs) == 1
            hits.append(store.ingest_stats.delta_hits)
        assert hits[0] == 0
        assert hits == sorted(hits) and hits[-1] > hits[1]

    def test_replay_parity_with_live_delta(self):
        graph = make_graph()
        store = make_store(graph)
        trace = growth_trace(64, 60, new_node_probability=0.0, seed=2)
        store.apply(trace)
        request = SampleRequest(roots=np.arange(8), fanouts=(4, 3))
        result = MultiHopSampler(store, seed=0).sample(request)
        fresh = make_store(graph)
        fresh.apply(trace)
        replay_reference(result, request, fresh)
        assert fresh.summary == store.summary


class TestPinning:
    def test_pinned_read_ignores_mutations(self):
        store = make_store(CSRGraph.from_edges(4, [(0, 1)]))
        with store.read_view():
            before = store.get_neighbors(0).tolist()
            store.apply([Mutation(EDGE, src=0, dst=3)])
            assert store.get_neighbors(0).tolist() == before
        assert store.get_neighbors(0).tolist() == [1, 3]

    def test_pinned_read_one_epoch(self):
        store = make_store()
        sampler = MultiHopSampler(store, seed=0)
        sampler.sample(SampleRequest(roots=np.arange(4), fanouts=(3, 2)))
        assert len(store.last_sample_epochs) == 1

    def _fire_mutation_mid_sample(self, sampler_cls):
        store = make_store()
        fired = []

        def selector(neighbors, fanout, rng):
            if not fired:
                fired.append(True)
                store.apply(growth_trace(64, 8, new_node_probability=1.0, seed=9))
            return rng.choice(neighbors, size=fanout, replace=True)

        sampler = sampler_cls(store, seed=0, selector=selector)
        result = sampler.sample(SampleRequest(roots=np.arange(4), fanouts=(3, 2)))
        assert fired
        assert len(store.last_sample_epochs) == 1
        new_ids = set(range(64, store.view.num_nodes))
        assert new_ids
        for layer in result.layers:
            assert not (set(layer.reshape(-1).tolist()) & new_ids)

    def test_mid_sample_mutation_not_torn(self):
        """A mutation landing between selector calls must not tear the
        multi-hop sample: every read still resolves at one epoch."""
        self._fire_mutation_mid_sample(ReferenceWalkSampler)

    def test_mid_sample_mutation_not_torn_batched(self):
        self._fire_mutation_mid_sample(MultiHopSampler)

    def test_pin_survives_compaction(self):
        store = make_store(CSRGraph.from_edges(4, [(0, 1)]), compact_threshold=2)
        with store.read_view():
            store.apply(
                [Mutation(EDGE, src=0, dst=2), Mutation(EDGE, src=0, dst=3)]
            )
            assert store.ingest_stats.compactions == 1
            assert store.get_neighbors(0).tolist() == [1]
        assert store.get_neighbors(0).tolist() == [1, 2, 3]

    def test_reentrant_pin(self):
        store = make_store()
        with store.read_view():
            with store.read_view():
                assert store.pinned
            assert store.pinned
        assert not store.pinned
