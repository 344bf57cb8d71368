"""The vectorized sampler: equivalence with the reference walk.

The contract under test: for any fixed sampled layers,
``MultiHopSampler``'s accounting (AccessSummary, cache hit/miss
counters, degraded fallbacks, fault stats) is identical to that of the
per-node oracle ``ReferenceWalkSampler``, and the samples themselves
are statistically equivalent (chi-squared per fanout). Replay
(:mod:`repro.framework.replay`) pins the walk to the sampler's layers
so accounting can be compared exactly.
"""

import hashlib

import numpy as np
import pytest

from repro.api import GnnSession
from repro.framework.cache import HotNodeCache
from repro.errors import ConfigurationError
from repro.framework.replay import ReferenceWalkSampler, replay_reference
from repro.framework.requests import NegativeSampleRequest, SampleRequest
from repro.framework.sampler import DENSE_DEDUP_RATIO, MultiHopSampler, dedup_ids
from repro.framework.selectors import SELECTORS
from repro.graph.csr import CSRGraph
from repro.graph.dynamic import DynamicGraph
from repro.graph.generators import power_law_graph
from repro.graph.partition import HashPartitioner, RangePartitioner
from repro.memstore.faults import FaultInjector, ReliableReadPath
from repro.memstore.ingest import NODE, DynamicPartitionedStore, Mutation
from repro.memstore.locality import build_locality_layout
from repro.memstore.replication import ReplicaPlacement
from repro.memstore.retry import RetryPolicy
from repro.memstore.store import PartitionedStore


#: Both implementations: the oracle, then the sampler under test. The
#: ids are the values of the ``batched`` flag these cases used to be
#: parametrized over, kept so their test names do not change.
both_samplers = pytest.mark.parametrize(
    "sampler_cls", [ReferenceWalkSampler, MultiHopSampler], ids=["False", "True"]
)


def chi2_critical(df: int, z: float = 4.5) -> float:
    """Wilson-Hilferty approximation of a chi-squared quantile.

    ``z`` is the standard-normal deviate; 4.5 keeps the false-positive
    rate per test around 3e-6, so the statistical assertions are not
    flaky, while still catching any systematic bias.
    """
    term = 1.0 - 2.0 / (9.0 * df) + z * np.sqrt(2.0 / (9.0 * df))
    return df * term**3


def star_graph(degree: int, attr_len: int = 4) -> CSRGraph:
    """Node 0 has neighbors 1..degree; the leaves are isolated."""
    num_nodes = degree + 1
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    indptr[1:] = degree
    indices = np.arange(1, degree + 1, dtype=np.int64)
    attr = (
        np.arange(1, num_nodes + 1, dtype=np.float32)[:, None]
        * np.ones(attr_len, dtype=np.float32)
    )
    return CSRGraph(indptr=indptr, indices=indices, node_attr=attr)


def chain_graph(num_nodes: int = 10, attr_len: int = 4) -> CSRGraph:
    """Every node has exactly one neighbor (the next, mod n), so the
    sampled layers are deterministic regardless of RNG path."""
    indptr = np.arange(num_nodes + 1, dtype=np.int64)
    indices = ((np.arange(num_nodes) + 1) % num_nodes).astype(np.int64)
    attr = (
        np.arange(1, num_nodes + 1, dtype=np.float32)[:, None]
        * np.ones(attr_len, dtype=np.float32)
    )
    return CSRGraph(indptr=indptr, indices=indices, node_attr=attr)


def cache_stats(cache):
    return (
        cache.neighbor_hits,
        cache.neighbor_misses,
        cache.attribute_hits,
        cache.attribute_misses,
    )


class TestAccountingEquivalence:
    @pytest.mark.parametrize("selector_name", sorted(SELECTORS))
    @pytest.mark.parametrize("cache_nodes", [0, 5000])
    def test_summary_matches_replayed_reference(self, selector_name, cache_nodes):
        graph = power_law_graph(1500, 8.0, attr_len=12, seed=1)
        partitioner = HashPartitioner(4)
        roots = np.random.default_rng(0).integers(0, 1500, size=48)
        request = SampleRequest(roots=roots, fanouts=(5, 4), with_attributes=True)

        batched_store = PartitionedStore(graph, partitioner)
        batched_cache = HotNodeCache(cache_nodes) if cache_nodes else None
        sampler = MultiHopSampler(
            batched_store,
            seed=7,
            cache=batched_cache,
            worker_partition=0,
            selector=SELECTORS[selector_name],
        )
        result = sampler.sample(request)

        replay_store = PartitionedStore(graph, partitioner)
        replay_cache = HotNodeCache(cache_nodes) if cache_nodes else None
        replay_reference(
            result, request, replay_store, worker_partition=0, cache=replay_cache
        )
        assert batched_store.summary == replay_store.summary
        if cache_nodes:
            assert cache_stats(batched_cache) == cache_stats(replay_cache)

    def test_summary_matches_with_edge_weights(self):
        base = power_law_graph(800, 6.0, attr_len=6, seed=2)
        rng = np.random.default_rng(3)
        graph = CSRGraph(
            indptr=base.indptr,
            indices=base.indices,
            node_attr=base.node_attr,
            edge_attr=rng.random(base.indices.size).astype(np.float32),
        )
        partitioner = HashPartitioner(3)
        roots = rng.integers(0, 800, size=32)
        request = SampleRequest(roots=roots, fanouts=(4, 3), with_attributes=True)
        store = PartitionedStore(graph, partitioner)
        sampler = MultiHopSampler(
            store,
            seed=9,
            worker_partition=1,
            selector=SELECTORS["weighted"],
        )
        result = sampler.sample(request)
        replay_store = PartitionedStore(graph, partitioner)
        replay_reference(result, request, replay_store, worker_partition=1)
        assert store.summary == replay_store.summary

    def test_layer_shapes_and_membership(self):
        graph = power_law_graph(600, 7.0, attr_len=5, seed=4)
        store = PartitionedStore(graph, HashPartitioner(4))
        sampler = MultiHopSampler(store, seed=3)
        request = SampleRequest(roots=np.array([1, 2, 3]), fanouts=(4, 3))
        result = sampler.sample(request)
        assert result.layers[0].shape == (3,)
        assert result.layers[1].shape == (3, 4)
        assert result.layers[2].shape == (3, 12)
        for hop in range(2):
            parents = result.layers[hop].reshape(-1)
            picks = result.layers[hop + 1].reshape(parents.size, -1)
            for i, parent in enumerate(parents):
                neighbors = graph.neighbors(int(parent))
                if neighbors.size == 0:
                    assert (picks[i] == parent).all()
                else:
                    assert np.isin(picks[i], neighbors).all()

    def test_attributes_match_node_attr(self):
        graph = star_graph(6)
        store = PartitionedStore(graph, HashPartitioner(2))
        sampler = MultiHopSampler(store, seed=0)
        request = SampleRequest(
            roots=np.array([0, 0]), fanouts=(3,), with_attributes=True
        )
        result = sampler.sample(request)
        for layer, attrs in zip(result.layers, result.attributes):
            expected = graph.node_attr[layer.reshape(-1)]
            assert np.array_equal(attrs.reshape(-1, graph.attr_len), expected)

    def test_custom_selector_falls_back_per_position(self):
        def take_first(neighbors, fanout, rng):
            return np.repeat(neighbors[0], fanout)

        graph = power_law_graph(300, 5.0, attr_len=3, seed=5)
        store = PartitionedStore(graph, HashPartitioner(2))
        sampler = MultiHopSampler(store, seed=0, selector=take_first)
        result = sampler.sample(SampleRequest(roots=np.array([7, 9]), fanouts=(4,)))
        for i, root in enumerate((7, 9)):
            neighbors = graph.neighbors(root)
            expected = neighbors[0] if neighbors.size else root
            assert (result.layers[1][i] == expected).all()

    def test_zero_degree_roots_self_loop(self):
        graph = star_graph(5)  # leaves 1..5 are isolated
        store = PartitionedStore(graph, HashPartitioner(2))
        sampler = MultiHopSampler(store, seed=0)
        result = sampler.sample(
            SampleRequest(roots=np.array([2, 4]), fanouts=(3,))
        )
        assert (result.layers[1] == np.array([[2], [4]])).all()


class TestStatisticalEquivalence:
    @pytest.mark.parametrize("selector_name", ["uniform", "streaming"])
    @both_samplers
    def test_uniform_marginals(self, selector_name, sampler_cls):
        # Degree divisible by fanout: both selectors have an exactly
        # uniform per-neighbor marginal, so one chi-squared test covers
        # both. 200 repetitions x fanout 4 over 12 neighbors.
        degree, fanout, repeats = 12, 4, 200
        graph = star_graph(degree)
        store = PartitionedStore(graph, HashPartitioner(2))
        sampler = sampler_cls(store, seed=11, selector=SELECTORS[selector_name])
        request = SampleRequest(
            roots=np.zeros(repeats, dtype=np.int64), fanouts=(fanout,)
        )
        picks = sampler.sample(request).layers[1].reshape(-1)
        observed = np.bincount(picks, minlength=degree + 1)[1:]
        expected = repeats * fanout / degree
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        assert chi2 < chi2_critical(degree - 1)

    @both_samplers
    def test_weighted_marginals(self, sampler_cls):
        degree, fanout, repeats = 4, 5, 300
        base = star_graph(degree)
        weights = np.array([1.0, 2.0, 3.0, 4.0], dtype=np.float32)
        graph = CSRGraph(
            indptr=base.indptr,
            indices=base.indices,
            node_attr=base.node_attr,
            edge_attr=weights,
        )
        store = PartitionedStore(graph, HashPartitioner(2))
        sampler = sampler_cls(store, seed=13, selector=SELECTORS["weighted"])
        request = SampleRequest(
            roots=np.zeros(repeats, dtype=np.int64), fanouts=(fanout,)
        )
        picks = sampler.sample(request).layers[1].reshape(-1)
        observed = np.bincount(picks, minlength=degree + 1)[1:]
        expected = repeats * fanout * weights / weights.sum()
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        assert chi2 < chi2_critical(degree - 1)


FAULT_STAT_FIELDS = ("reads", "attempts", "retries", "timeouts", "failed_reads")


def make_fault_run(
    sampler_cls,
    cache_nodes=0,
    graph=None,
    partitioner=None,
    replication=1,
    kills=((1, 0),),
    worker_partition=0,
):
    """A sampler over a store whose ``kills`` (partition, replica) are dead."""
    graph = graph if graph is not None else chain_graph(10)
    partitioner = partitioner or RangePartitioner(2, graph.num_nodes)
    placement = ReplicaPlacement(partitioner.num_partitions, replication)
    injector = FaultInjector()
    # hedge=False + jitter_sigma=0 keeps the reliable path order-independent
    # so both sampler classes see identical per-read outcomes.
    path = ReliableReadPath(
        placement, RetryPolicy(hedge=False), injector, seed=0, jitter_sigma=0.0
    )
    for partition, replica in kills:
        injector.kill_replica(partition, replica)
    store = PartitionedStore(graph, partitioner, reliability=path)
    cache = HotNodeCache(cache_nodes) if cache_nodes else None
    sampler = sampler_cls(
        store,
        seed=5,
        cache=cache,
        worker_partition=worker_partition,
        degraded_ok=True,
    )
    return sampler, store, cache, injector


def assert_live_runs_agree(requests, context=None, **fault_run):
    """Sample ``requests`` on the oracle and on the sampler, each over its
    own ``make_fault_run(**fault_run)``; on graphs whose layers do not
    depend on the RNG the two must agree down to every fault counter."""
    walk, walk_store, walk_cache, _ = make_fault_run(ReferenceWalkSampler, **fault_run)
    fast, fast_store, fast_cache, _ = make_fault_run(MultiHopSampler, **fault_run)
    for request in requests:
        want, got = walk.sample(request), fast.sample(request)
        for a, b in zip(want.layers, got.layers):
            assert np.array_equal(a, b), context
        for a, b in zip(want.attributes or (), got.attributes or ()):
            assert np.array_equal(a, b), context
    assert walk_store.summary == fast_store.summary, context
    assert walk.degraded_fallbacks == fast.degraded_fallbacks, context
    for name in FAULT_STAT_FIELDS:
        assert getattr(walk_store.fault_stats, name) == getattr(
            fast_store.fault_stats, name
        ), (context, name)
    if walk_cache is not None:
        assert cache_stats(walk_cache) == cache_stats(fast_cache), context
    return walk


class TestDegradedParity:
    @pytest.mark.parametrize("cache_nodes", [0, 100])
    def test_degraded_run_matches_reference(self, cache_nodes):
        request = SampleRequest(
            roots=np.array([0, 3, 7, 7, 8]), fanouts=(2, 2), with_attributes=True
        )
        # The chain graph pins the layers, so the two live runs are
        # directly comparable.
        walk = assert_live_runs_agree([request], cache_nodes=cache_nodes)
        assert walk.degraded_fallbacks > 0

    @both_samplers
    def test_degraded_reads_degrade_not_raise(self, sampler_cls):
        sampler, _store, _cache, _ = make_fault_run(sampler_cls)
        request = SampleRequest(
            roots=np.array([7, 8]), fanouts=(2,), with_attributes=True
        )
        result = sampler.sample(request)
        assert sampler.degraded_fallbacks > 0
        # Dead-shard roots degrade to self-loops and zero rows.
        assert (result.layers[1] == request.roots[:, None]).all()
        assert (result.attributes[1] == 0).all()


class TestCachePoisoningRegression:
    @both_samplers
    def test_recovered_shard_serves_real_attributes(self, sampler_cls):
        """Kill shard -> sample -> restore -> real attributes again.

        Degraded zero rows must not be cached: before the fix the first
        degraded run poisoned HotNodeCache and kept serving zeros after
        the shard came back.
        """
        sampler, _store, cache, injector = make_fault_run(sampler_cls, cache_nodes=100)
        graph = sampler.store.graph
        request = SampleRequest(
            roots=np.array([7, 8]), fanouts=(1,), with_attributes=True
        )
        degraded = sampler.sample(request)
        assert (degraded.attributes[0] == 0).all()  # shard down: zero rows
        injector.restore_replica(1, 0)
        recovered = sampler.sample(request)
        expected = graph.node_attr[request.roots]
        assert np.array_equal(recovered.attributes[0], expected)
        assert (recovered.attributes[0] != 0).any()
        # And the cache now holds the real rows, not zeros.
        for root in request.roots:
            row = cache.get_attributes(int(root))
            assert row is not None and (row != 0).any()

    @both_samplers
    def test_recovered_shard_serves_real_neighbors(self, sampler_cls):
        sampler, _store, cache, injector = make_fault_run(sampler_cls, cache_nodes=100)
        request = SampleRequest(roots=np.array([7]), fanouts=(2,))
        degraded = sampler.sample(request)
        assert (degraded.layers[1] == 7).all()  # self-loop fallback
        injector.restore_replica(1, 0)
        recovered = sampler.sample(request)
        assert (recovered.layers[1] == 8).all()  # chain: 7 -> 8
        assert cache.get_neighbors(7) is not None


def random_graph(rng, weighted):
    """Small random graph: isolated nodes, hubs and multi-edges included."""
    num_nodes = int(rng.integers(20, 200))
    degrees = rng.poisson(rng.uniform(1.0, 6.0), size=num_nodes)
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    num_edges = int(indptr[-1])
    return CSRGraph(
        indptr=indptr,
        indices=rng.integers(0, num_nodes, size=num_edges),
        node_attr=rng.random((num_nodes, 3)).astype(np.float32),
        # Strictly positive, so no adjacency row has an all-zero CDF.
        edge_attr=(
            (rng.random(num_edges) + 0.05).astype(np.float32) if weighted else None
        ),
    )


def functional_graph(rng):
    """Out-degree <= 1 everywhere: the sampled layers do not depend on
    the RNG, so two live samplers can be compared without replay."""
    num_nodes = int(rng.integers(8, 60))
    degrees = (rng.random(num_nodes) < 0.8).astype(np.int64)
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    return CSRGraph(
        indptr=indptr,
        indices=rng.integers(0, num_nodes, size=int(indptr[-1])),
        node_attr=rng.random((num_nodes, 2)).astype(np.float32) + 1.0,
    )


def random_requests(rng, num_nodes, max_hops):
    num_hops = rng.integers(1, max_hops + 1)
    fanouts = tuple(int(f) for f in rng.integers(1, 5, size=num_hops))
    return [
        SampleRequest(
            roots=rng.integers(0, num_nodes, size=rng.integers(1, 24)),
            fanouts=fanouts,
            with_attributes=bool(rng.integers(0, 2)),
        )
        for _ in range(rng.integers(1, 3))
    ]


class TestSeededParitySweep:
    """The two random sweeps that sized the one-sampler change, seeded
    and cut down to tier-1 size."""

    def test_replayed_walk_charges_the_same(self):
        for seed in range(60):
            rng = np.random.default_rng(seed)
            selector_name = sorted(SELECTORS)[seed % len(SELECTORS)]
            graph = random_graph(rng, weighted=bool(rng.integers(0, 2)))
            num_partitions = int(rng.integers(1, 5))
            layout = [None, None, "ldg", "hash", "range"][rng.integers(0, 5)]
            # Capacity above the node count: the cache never thrashes.
            cache_nodes = graph.num_nodes + 1 if rng.integers(0, 2) else 0
            requests = random_requests(rng, graph.num_nodes, max_hops=2)
            if seed < 2:
                # Two of the inputs are sessions built the default way.
                cache_nodes = graph.num_nodes + 1
                sampler = GnnSession(
                    graph,
                    num_partitions=num_partitions,
                    sampling_method=selector_name,
                    cache_nodes=cache_nodes,
                    layout="ldg" if seed else None,
                ).sampler
            else:
                partitioner, relabeling = HashPartitioner(num_partitions), None
                if layout is not None:
                    built = build_locality_layout(graph, num_partitions, method=layout)
                    graph, partitioner = built.graph, built.partitioner
                    relabeling = built.relabeling
                sampler = MultiHopSampler(
                    PartitionedStore(graph, partitioner, relabeling=relabeling),
                    seed=seed,
                    cache=HotNodeCache(cache_nodes) if cache_nodes else None,
                    worker_partition=[None, 0, num_partitions - 1][rng.integers(0, 3)],
                    selector=SELECTORS[selector_name],
                )
            store = sampler.store
            replay_store = PartitionedStore(
                store.graph, store.partitioner, relabeling=store.relabeling
            )
            replay_cache = HotNodeCache(cache_nodes) if cache_nodes else None
            for request in requests:
                replay_reference(
                    sampler.sample(request),
                    request,
                    replay_store,
                    worker_partition=sampler.worker_partition,
                    cache=replay_cache,
                )
            assert store.summary == replay_store.summary, seed
            if cache_nodes:
                assert cache_stats(sampler.cache) == cache_stats(replay_cache), seed

    def test_live_runs_agree_under_replica_kills(self):
        for seed in range(60):
            rng = np.random.default_rng(1000 + seed)
            graph = functional_graph(rng)
            num_partitions = int(rng.integers(2, 5))
            replication = int(rng.integers(1, 3))
            assert_live_runs_agree(
                random_requests(rng, graph.num_nodes, max_hops=3),
                context=seed,
                cache_nodes=graph.num_nodes + 1 if rng.integers(0, 2) else 0,
                graph=graph,
                partitioner=HashPartitioner(num_partitions),
                replication=replication,
                kills=[
                    (partition, replica)
                    for partition in range(num_partitions)
                    for replica in range(replication)
                    if rng.random() < 0.4
                ],
                worker_partition=int(rng.integers(0, num_partitions)),
            )


class TestOnePath:
    """``batched`` selects nothing any more: ``False`` names the oracle."""

    def test_sampler_rejects_batched_false(self):
        store = PartitionedStore(star_graph(4), HashPartitioner(2))
        with pytest.raises(ConfigurationError, match="ReferenceWalkSampler"):
            MultiHopSampler(store, batched=False)
        for sampler in (MultiHopSampler(store), ReferenceWalkSampler(store)):
            assert not hasattr(sampler, "batched")

    def test_session_rejects_batched_false(self):
        with pytest.raises(ConfigurationError, match="ReferenceWalkSampler"):
            GnnSession(star_graph(4), batched=False)


class TestPartiallyUnservedBatch:
    @pytest.mark.parametrize("cache_nodes", [0, 100])
    def test_unserved_rows_zero_and_never_cached(self, cache_nodes):
        """One attribute batch with a live and a dead shard in it."""
        sampler, _store, cache, _ = make_fault_run(MultiHopSampler, cache_nodes)
        graph = sampler.store.graph
        # Range partitioner: 0..4 live on the worker's shard, 5..9 on
        # the dead one.
        request = SampleRequest(
            roots=np.array([0, 7, 2, 7]), fanouts=(1,), with_attributes=True
        )
        result = sampler.sample(request)
        rows = result.attributes[0]
        assert np.array_equal(rows[[0, 2]], graph.node_attr[[0, 2]])
        assert (rows[[1, 3]] == 0).all()
        assert sampler.degraded_fallbacks > 0
        if cache_nodes:
            assert cache.get_attributes(0) is not None
            assert cache.get_attributes(7) is None


#: SHA-256 over the int64 bytes of every sampled layer of
#: ``golden_layers_digest``, recorded at the commit *before* the batched
#: path went bucket-free (ragged picks, one dedup per layer). The stream
#: is part of the contract: losses, ``weights_digest`` and every
#: recorded benchmark outcome hang off it, so an "optimisation" that
#: moves a digest is a behaviour change and has to say so.
GOLDEN_LAYER_DIGESTS = {
    "uniform": "5cfe9775c651f221e71189a2a3844bd7dbcf65cd43c69d53845771b7b6c46b01",
    "streaming": "42697489051702a25a193abfc8455e13ae391e008d4e9fffc6135fe8897897fa",
    "weighted": "37ec62e4021d3c9eac69a830c65e083ac96ed9aeb0dc47ec30131d466e7255fe",
    "streaming_weighted": "ebd24721a0eff3b0dca202a771ffcf1e170f402eaafa77db8a3646049ef51b66",
}


def golden_graph():
    rng = np.random.default_rng(12)
    num_nodes = 1200
    # Degrees 0..11 (isolated, degree-1 and below-fanout nodes all
    # present) plus a few hubs, so every selection regime is hit.
    degrees = rng.integers(0, 12, size=num_nodes)
    degrees[rng.integers(0, num_nodes, size=24)] = rng.integers(30, 90, size=24)
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    graph = CSRGraph(
        indptr=indptr,
        indices=rng.integers(0, num_nodes, size=int(indptr[-1])),
        node_attr=rng.random((num_nodes, 4)).astype(np.float32),
        edge_attr=rng.random(int(indptr[-1])).astype(np.float32),
    )
    return graph, rng


def golden_layers_digest(selector_name):
    graph, rng = golden_graph()
    store = PartitionedStore(graph, HashPartitioner(4))
    sampler = MultiHopSampler(
        store,
        seed=13,
        worker_partition=0,
        selector=SELECTORS[selector_name],
    )
    digest = hashlib.sha256()
    for _ in range(3):
        roots = rng.integers(0, graph.num_nodes, size=64)
        result = sampler.sample(
            SampleRequest(roots=roots, fanouts=(6, 5), with_attributes=True)
        )
        for layer in result.layers:
            digest.update(np.ascontiguousarray(layer, dtype=np.int64).tobytes())
    return digest.hexdigest()


class TestGoldenStream:
    @pytest.mark.parametrize("selector_name", sorted(SELECTORS))
    def test_layers_digest_pinned(self, selector_name):
        assert golden_layers_digest(selector_name) == GOLDEN_LAYER_DIGESTS[selector_name]


def assert_dedup_equals_unique(flat, num_nodes):
    got = dedup_ids(flat, num_nodes)
    want = np.unique(flat, return_inverse=True, return_counts=True)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert np.array_equal(g, w)


class TestDedupParity:
    def test_both_sides_of_the_crossover(self):
        rng = np.random.default_rng(0)
        size = 300
        for num_nodes in (
            40,  # dense table, heavy duplication
            DENSE_DEDUP_RATIO * size,  # last dense size
            DENSE_DEDUP_RATIO * size + 1,  # first sorted size
            50_000,  # sorted, hardly any duplicates
        ):
            assert_dedup_equals_unique(rng.integers(0, num_nodes, size=size), num_nodes)
        assert_dedup_equals_unique(np.array([5]), 6)
        assert_dedup_equals_unique(np.array([3, 3, 3, 3]), 4)
        assert_dedup_equals_unique(np.empty(0, dtype=np.int64), 10)

    def test_grown_dynamic_view(self):
        """IDs minted by ``add_node`` dedup (and sample) like any other."""
        base = power_law_graph(60, 4.0, attr_len=3, seed=6)
        store = DynamicPartitionedStore(DynamicGraph(base), HashPartitioner(2))
        store.apply([Mutation(NODE, attach_to=i) for i in range(8)])
        num_nodes = store.graph.num_nodes
        assert num_nodes == base.num_nodes + 8
        roots = np.concatenate(
            [np.arange(base.num_nodes, num_nodes), np.arange(40), [61, 61]]
        )
        assert num_nodes <= DENSE_DEDUP_RATIO * roots.size  # dense regime
        assert_dedup_equals_unique(roots, num_nodes)
        sampler = MultiHopSampler(store, seed=2, worker_partition=0)
        request = SampleRequest(roots=roots, fanouts=(3, 2), with_attributes=True)
        result = sampler.sample(request)
        # A new node's only neighbour is the node it attached to.
        assert (result.layers[1][:8] == np.arange(8)[:, None]).all()
        for layer, attrs in zip(result.layers, result.attributes):
            expected = store.graph.attributes(layer.reshape(-1))
            assert np.array_equal(attrs.reshape(expected.shape), expected)
        replay_store = DynamicPartitionedStore(store.dynamic, HashPartitioner(2))
        replay_reference(result, request, replay_store, worker_partition=0)
        assert store.summary == replay_store.summary


class TestAttributeOwnership:
    @pytest.mark.parametrize("cache_nodes", [0, 2000])
    def test_result_arrays_alias_nothing(self, cache_nodes):
        """The caller owns ``result.attributes``: scribbling on one layer
        reaches neither the graph, nor another layer, nor a later sample."""
        graph = power_law_graph(400, 6.0, attr_len=5, seed=9)
        pristine = graph.node_attr.copy()
        request = SampleRequest(
            roots=np.arange(0, 400, 2), fanouts=(3, 2), with_attributes=True
        )

        def make():
            return MultiHopSampler(
                PartitionedStore(graph, HashPartitioner(2)),
                seed=4,
                cache=HotNodeCache(cache_nodes) if cache_nodes else None,
                )

        sampler = make()
        first = sampler.sample(request)
        saved = [attrs.copy() for attrs in first.attributes]
        for i, attrs in enumerate(first.attributes):
            assert not np.shares_memory(attrs, graph.node_attr)
            for j, other in enumerate(first.attributes):
                assert i == j or not np.shares_memory(attrs, other)
            attrs[...] = -1.0
            assert np.array_equal(graph.node_attr, pristine)
            for j in range(i + 1, len(saved)):
                assert np.array_equal(first.attributes[j], saved[j])
        # Same sampler again (cache now warm) and a fresh twin: both
        # serve real rows, untouched by the scribbling above.
        again = sampler.sample(request)
        for layer, attrs in zip(again.layers, again.attributes):
            assert np.array_equal(attrs, pristine[layer])
        for want, got in zip(saved, make().sample(request).attributes):
            assert np.array_equal(want, got)


class TestNegativeSample:
    def _sampler(self, num_nodes=400, avg_degree=6.0):
        graph = power_law_graph(num_nodes, avg_degree, attr_len=2, seed=8)
        store = PartitionedStore(graph, HashPartitioner(2))
        return MultiHopSampler(store, seed=2)

    def test_rejects_neighbors_and_source(self):
        sampler = self._sampler()
        pairs = np.array([[3, 4], [10, 11], [50, 51]])
        out = sampler.negative_sample(NegativeSampleRequest(pairs=pairs, rate=20))
        assert out.shape == (3, 20)
        graph = sampler.store.graph
        for row, (src, _dst) in enumerate(pairs):
            forbidden = set(graph.neighbors(int(src)).tolist()) | {int(src)}
            assert not (set(out[row].tolist()) & forbidden)

    def test_draws_in_range(self):
        sampler = self._sampler()
        pairs = np.array([[1, 2]])
        out = sampler.negative_sample(NegativeSampleRequest(pairs=pairs, rate=64))
        assert ((0 <= out) & (out < sampler.store.graph.num_nodes)).all()

    def test_high_degree_source_terminates(self):
        # A source adjacent to most of the graph: the old draw-by-draw
        # loop degenerated here; the block sampler must still fill.
        num_nodes = 50
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        indptr[1:] = num_nodes - 2
        indices = np.arange(2, num_nodes, dtype=np.int64)
        graph = CSRGraph(indptr=indptr, indices=indices)
        store = PartitionedStore(graph, HashPartitioner(2))
        sampler = MultiHopSampler(store, seed=3)
        out = sampler.negative_sample(
            NegativeSampleRequest(pairs=np.array([[0, 1]]), rate=32)
        )
        # Only node 1 and node 0 itself... node 0 forbids {0, 2..49};
        # the sole legal negative is 1.
        assert (out == 1).all()

    def test_all_forbidden_escape(self):
        # Source adjacent to every node (including itself): the
        # historical escape accepts arbitrary draws instead of looping.
        num_nodes = 8
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        indptr[1:] = num_nodes
        indices = np.arange(num_nodes, dtype=np.int64)
        graph = CSRGraph(indptr=indptr, indices=indices)
        store = PartitionedStore(graph, HashPartitioner(2))
        sampler = MultiHopSampler(store, seed=4)
        out = sampler.negative_sample(
            NegativeSampleRequest(pairs=np.array([[0, 1]]), rate=16)
        )
        assert out.shape == (1, 16)
        assert ((0 <= out) & (out < num_nodes)).all()
