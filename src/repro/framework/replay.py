"""The sampler's oracle: the per-node walk, and replay through it.

:class:`~repro.framework.sampler.MultiHopSampler` is vectorized; what
it must preserve is the access accounting of the AliGraph per-node
walk. :class:`ReferenceWalkSampler` is that walk, kept here as an
independent implementation: it shares no code with
``framework/sampler.py`` and reads the store one node at a time.

The two consume the RNG in different orders, so two live runs sample
different layers and their ``AccessSummary`` totals legitimately differ
(ID-block bytes depend on which nodes got sampled). The equivalence
contract is therefore stated *conditionally*: for any fixed sampled
layers, the sampler's accounting — access counts, bytes, locality
split, cache hit/miss counters, degraded fallbacks — is identical to
the walk's. :class:`ReplaySelector` feeds a result's own picks back
through the walk, so the walk reproduces the exact same layers and its
store/cache counters can be compared 1:1 with the sampler's. The tests
and the ``bench/`` workload checks lean on it.
"""

from __future__ import annotations

import inspect
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError, GraphError, ReplicaUnavailableError
from repro.framework.cache import HotNodeCache
from repro.framework.requests import SampleRequest, SampleResult
from repro.framework.selectors import select_uniform
from repro.memstore.store import PartitionedStore


class ReferenceWalkSampler:
    """The per-node multi-hop walk ``MultiHopSampler`` is checked against.

    Same constructor arguments and ``sample()`` contract as
    :class:`~repro.framework.sampler.MultiHopSampler`, one Python-level
    store read per frontier position. It is a test oracle, ~10x slower
    than the sampler, and has no ``negative_sample``.
    """

    def __init__(
        self,
        store: PartitionedStore,
        seed: int = 0,
        cache: Optional[HotNodeCache] = None,
        worker_partition: Optional[int] = None,
        selector=select_uniform,
        degraded_ok: bool = False,
    ) -> None:
        self.store = store
        self.rng = np.random.default_rng(seed)
        self.cache = cache
        self.worker_partition = worker_partition
        self.selector = selector
        self.degraded_ok = degraded_ok
        #: Reads completed without data because a shard was unreachable.
        self.degraded_fallbacks = 0
        # Weighted selectors take an extra ``weights`` argument, fed
        # from the graph's per-edge attributes when present.
        self._selector_takes_weights = (
            "weights" in inspect.signature(selector).parameters
        )

    def _neighbors(self, node: int) -> np.ndarray:
        if self.cache is not None:
            hit = self.cache.get_neighbors(node)
            if hit is not None:
                return hit
        try:
            neighbors = self.store.get_neighbors(node, self.worker_partition)
        except ReplicaUnavailableError:
            if not self.degraded_ok:
                raise
            # Degraded completion: treat the node as isolated, which
            # downstream becomes the zero-degree self-loop fallback.
            # The empty list is NOT cached — the shard may come back.
            self.degraded_fallbacks += 1
            return np.empty(0, dtype=np.int64)
        if self.cache is not None:
            self.cache.put_neighbors(node, neighbors)
        return neighbors

    def _sample_neighbors(self, node: int, fanout: int) -> np.ndarray:
        """Sample ``fanout`` neighbors of ``node`` through the selector.

        Zero-degree nodes sample themselves (AliGraph's self-loop
        fallback), so layer shapes stay dense.
        """
        neighbors = self._neighbors(node)
        if neighbors.size == 0:
            return np.full(fanout, node, dtype=np.int64)
        if self._selector_takes_weights and self.store.graph.edge_attr is not None:
            start = int(self.store.graph.indptr[node])
            weights = self.store.graph.edge_attr[start : start + neighbors.size]
            return np.asarray(
                self.selector(neighbors, fanout, self.rng, weights=weights),
                dtype=np.int64,
            )
        return np.asarray(
            self.selector(neighbors, fanout, self.rng), dtype=np.int64
        )

    def sample(self, request: SampleRequest) -> SampleResult:
        """Walk the request hop by hop, position by position, under one
        pinned store view (one epoch per sample on a mutable store)."""
        with self.store.read_view():
            return self._sample_pinned(request)

    def _sample_pinned(self, request: SampleRequest) -> SampleResult:
        result = SampleResult()
        roots = request.roots
        if roots.max(initial=-1) >= self.store.graph.num_nodes or roots.min(initial=0) < 0:
            raise GraphError("request roots outside [0, num_nodes)")
        # The walk runs in store IDs; callers speak original IDs. Map
        # in here, map every layer back below.
        result.layers.append(self.store.to_internal(roots).copy())
        for fanout in request.fanouts:
            frontier = result.layers[-1].reshape(-1)
            sampled = [self._sample_neighbors(int(node), fanout) for node in frontier]
            result.layers.append(np.concatenate(sampled).reshape(roots.size, -1))
        if request.with_attributes:
            result.attributes = [
                self._fetch_attributes(layer) for layer in result.layers
            ]
        result.layers = [self.store.to_original(layer) for layer in result.layers]
        return result

    def _fetch_attributes(self, layer: np.ndarray) -> np.ndarray:
        flat = layer.reshape(-1)
        served = np.zeros(flat.size, dtype=bool)
        rows = np.empty((flat.size, self.store.graph.attr_len), dtype=np.float32)
        if self.cache is not None:
            for i, node in enumerate(flat):
                hit = self.cache.get_attributes(int(node))
                if hit is not None:
                    rows[i] = hit
                    served[i] = True
        missing = np.flatnonzero(~served)
        if missing.size:
            fetched_rows, fetched = self._fetch_missing(flat[missing])
            rows[missing] = fetched_rows
            if self.cache is not None:
                # Inserts come after every lookup of the layer, and only
                # for rows that were actually fetched: a degraded zero
                # row must not outlive the outage (the shard may come
                # back, and a poisoned entry would keep serving zeros).
                for i, node, ok in zip(missing, flat[missing], fetched):
                    if ok:
                        self.cache.put_attributes(int(node), rows[i])
        return rows.reshape(layer.shape + (self.store.graph.attr_len,))

    def _fetch_missing(self, nodes: np.ndarray):
        """Fetch uncached attribute rows, degrading per node if allowed.

        Returns ``(rows, fetched)`` where ``fetched[i]`` is False for
        rows that degraded to zeros (shard unreachable).
        """
        if not self.degraded_ok or self.store.reliability is None:
            return (
                self.store.get_attributes(nodes, self.worker_partition),
                np.ones(nodes.size, dtype=bool),
            )
        # Node by node, so one dead shard only blanks its own rows.
        rows = np.zeros((nodes.size, self.store.graph.attr_len), dtype=np.float32)
        fetched = np.zeros(nodes.size, dtype=bool)
        for i, node in enumerate(nodes):
            try:
                rows[i] = self.store.get_attributes(
                    np.asarray([node], dtype=np.int64), self.worker_partition
                )[0]
                fetched[i] = True
            except ReplicaUnavailableError:
                self.degraded_fallbacks += 1
        return rows, fetched


def _parent_degrees(graph, parents: np.ndarray) -> np.ndarray:
    """Out-degrees of ``parents`` on a CSR graph or a dynamic GraphView.

    ``neighbor_slices`` is the vectorized CSR path; snapshot views
    (whose adjacency spans base + append log) expose ``degree`` only.
    """
    if hasattr(graph, "neighbor_slices"):
        starts, stops = graph.neighbor_slices(parents)
        return stops - starts
    return np.fromiter(
        (graph.degree(int(p)) for p in parents),
        dtype=np.int64,
        count=parents.size,
    )


class ReplaySelector:
    """Selector that replays a prior result's picks in walk order.

    The reference walk consults its selector once per frontier position
    with a non-empty neighbor list, hop by hop in flat row-major order;
    zero-degree positions take the self-loop fallback without a
    selector call. This selector precomputes that call sequence from
    ``result`` and hands each call its recorded row of picks, ignoring
    the RNG. It deliberately has no ``weights`` parameter, so the
    walk's weighted branch is bypassed.
    """

    def __init__(
        self, result: SampleResult, request: SampleRequest, store: PartitionedStore
    ) -> None:
        self._rows = []
        for hop, fanout in enumerate(request.fanouts):
            # Recorded layers are in original IDs; the walk (and the
            # store's graph) run in store IDs.
            parents = store.to_internal(result.layers[hop].reshape(-1))
            picks = store.to_internal(
                result.layers[hop + 1].reshape(parents.size, fanout)
            )
            degrees = _parent_degrees(store.graph, parents)
            for i in np.flatnonzero(degrees > 0):
                self._rows.append(picks[i].astype(np.int64))
        self._cursor = 0

    def __call__(
        self, neighbors: np.ndarray, fanout: int, rng: np.random.Generator
    ) -> np.ndarray:
        if self._cursor >= len(self._rows):
            raise ConfigurationError(
                "replay exhausted: the walk consulted the selector more "
                "often than the recorded result did"
            )
        row = self._rows[self._cursor]
        self._cursor += 1
        if row.size != fanout:
            raise ConfigurationError(
                f"replay fanout mismatch: recorded {row.size}, walk asked {fanout}"
            )
        return row


def replay_reference(
    result: SampleResult,
    request: SampleRequest,
    store: PartitionedStore,
    worker_partition: Optional[int] = None,
    cache: Optional[HotNodeCache] = None,
) -> SampleResult:
    """Re-run the reference walk pinned to ``result``'s sampled layers.

    ``store`` should be a fresh store over the same graph/partitioner
    (and typically no reliability path — replay assumes every position's
    neighbor list has its full graph degree, which degraded completions
    violate). When the result was sampled through a locality layout,
    ``store`` must carry the same ``relabeling``: the recorded layers
    are in original IDs, the walk runs in the store's. After this returns,
    ``store.summary`` and ``cache`` counters hold exactly what the
    per-node reference walk charges for those layers, ready to compare
    against the recorded run's.
    """
    selector = ReplaySelector(result, request, store)
    sampler = ReferenceWalkSampler(
        store,
        seed=0,
        cache=cache,
        worker_partition=worker_partition,
        selector=selector,
    )
    replayed = sampler.sample(request)
    for recorded, walked in zip(result.layers, replayed.layers):
        if not np.array_equal(recorded, walked):
            raise ConfigurationError(
                "replay diverged from the recorded layers; the result was "
                "not produced on this graph"
            )
    return replayed
