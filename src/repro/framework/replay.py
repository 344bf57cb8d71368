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
split, degraded fallbacks — is identical to the walk's.
:class:`ReplaySelector` feeds a result's own picks back through the
walk, so the walk reproduces the exact same layers and its store
counters can be compared 1:1 with the sampler's. The tests
and the ``bench/`` workload checks lean on it.
"""

from __future__ import annotations

import inspect
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError, GraphError, ReplicaUnavailableError
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
        worker_partition: Optional[int] = None,
        selector=select_uniform,
        degraded_ok: bool = False,
    ) -> None:
        self.store = store
        self.rng = np.random.default_rng(seed)
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
        try:
            return self.store.get_neighbors(node, self.worker_partition)
        except ReplicaUnavailableError:
            if not self.degraded_ok:
                raise
            # Degraded completion: treat the node as isolated, which
            # downstream becomes the zero-degree self-loop fallback.
            self.degraded_fallbacks += 1
            return np.empty(0, dtype=np.int64)

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
            fetched = [self._fetch_attributes(layer) for layer in result.layers]
            result.attribute_rows, result.attribute_index = map(list, zip(*fetched))
        result.layers = [self.store.to_original(layer) for layer in result.layers]
        return result

    def _fetch_attributes(self, layer: np.ndarray):
        """``(rows, index)``: one row per position and an identity index.
        With ``degraded_ok``, a row whose shard is unreachable is zeros."""
        flat = layer.reshape(-1)
        index = np.arange(flat.size).reshape(layer.shape)
        if not self.degraded_ok or self.store.reliability is None:
            return self.store.get_attributes(flat, self.worker_partition), index
        # Node by node, so one dead shard only blanks its own rows.
        rows = np.zeros((flat.size, self.store.graph.attr_len), dtype=np.float32)
        for i, node in enumerate(flat):
            try:
                rows[i] = self.store.get_attributes(
                    np.asarray([node], dtype=np.int64), self.worker_partition
                )[0]
            except ReplicaUnavailableError:
                self.degraded_fallbacks += 1
        return rows, index


def _parent_degrees(graph, parents: np.ndarray) -> np.ndarray:
    """Out-degrees of ``parents`` on a CSR graph or a dynamic GraphView
    (base block plus append-log prefix)."""
    _values, _offsets, base, delta = graph.gather(parents)
    return base + delta


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
) -> SampleResult:
    """Re-run the reference walk pinned to ``result``'s sampled layers.

    ``store`` should be a fresh store over the same graph/partitioner
    (and typically no reliability path — replay assumes every position's
    neighbor list has its full graph degree, which degraded completions
    violate). When the result was sampled through a locality layout,
    ``store`` must carry the same ``relabeling``: the recorded layers
    are in original IDs, the walk runs in the store's. After this returns,
    ``store.summary`` holds exactly what the per-node reference walk
    charges for those layers, ready to compare against the recorded
    run's.
    """
    selector = ReplaySelector(result, request, store)
    sampler = ReferenceWalkSampler(
        store,
        seed=0,
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
