"""Multi-hop random sampler (the CPU software path).

Implements the AliGraph programming model from Section 2.1: given a
root node ``v``, sample a subset ``S(v)`` of the neighbor set ``N(v)``,
fetch attributes of sampled nodes, and iterate for multiple hops. Also
implements negative sampling (used by link-prediction losses).

This is the software baseline the AxE hardware model is compared with
and the workload generator for the characterization figures. Its
access accounting is checked against an independent per-node walk,
:class:`repro.framework.replay.ReferenceWalkSampler`.
"""

from __future__ import annotations

import inspect
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError, GraphError, ReplicaUnavailableError
from repro.framework.requests import (
    NegativeSampleRequest,
    SampleRequest,
    SampleResult,
)
from repro.framework.kernels import NUMPY_KERNELS
from repro.framework.selectors import (
    get_bucket_selector,
    get_ragged_picker,
    select_uniform,
)
from repro.memstore.store import PartitionedStore

#: ``dedup_ids`` counts into a dense ``num_nodes`` table (O(n + N), no
#: sort) when ``num_nodes <= DENSE_DEDUP_RATIO * n`` and sorts otherwise.
#: Measured crossover (uniform int64 IDs, numpy 2.4, n = 256 .. 256k):
#: the table wins at N = 2n for every n (1.4-1.9x) and loses at N = 4n
#: once n >= 25k (it no longer fits in cache), so 2. A small frontier on
#: a hyperscale graph never pays the O(N) pass.
DENSE_DEDUP_RATIO = 2


def dedup_ids(flat: np.ndarray, num_nodes: int):
    """``np.unique(flat, return_inverse=True, return_counts=True)`` for
    node IDs in ``[0, num_nodes)`` -- same three arrays in both regimes."""
    if num_nodes > DENSE_DEDUP_RATIO * flat.size:
        return np.unique(flat, return_inverse=True, return_counts=True)
    table = np.bincount(flat, minlength=num_nodes)
    unique = np.flatnonzero(table)
    counts = table[unique]
    # The table turns from ID -> occurrences into ID -> slot in
    # ``unique``; only the entries of IDs that occur are read back.
    table[unique] = np.arange(unique.size)
    return unique, table[flat], counts


class MultiHopSampler:
    """Random multi-hop sampler over a partitioned store.

    Vectorized: one dedup per layer (shared by the hop expansion and
    the attribute fetch), one store batch call and one degree sort per
    hop, one ragged RNG pick per hop and RNG stream (weighted selectors
    pick degree bucket by degree bucket).
    ``sample`` runs one stream; a shard expansion runs one per (shard,
    micro-batch) task.
    For the layers it samples, ``AccessSummary``
    totals and degraded-fallback counts equal the
    per-node walk's; its RNG consumption order differs, so the draws
    are statistically equivalent to the walk's, not stream-identical.

    Parameters
    ----------
    store:
        The graph store; every structure/attribute access is accounted
        there.
    seed:
        RNG seed for reproducible sampling.
    worker_partition:
        The partition the requesting worker is co-located with; used to
        attribute accesses as local or remote. ``None`` treats all
        accesses as local.
    selector:
        Neighbor-selection strategy ``f(neighbors, fanout, rng)``;
        defaults to uniform-with-replacement. Pass
        :func:`~repro.framework.selectors.select_streaming` to sample
        the way the AxE hardware does.
    degraded_ok:
        When the store's fault-tolerant path declares a shard
        unreachable (every replica dead past the read deadline), fall
        back instead of raising: neighbor reads degrade to the
        self-loop fallback, attribute reads to zero rows. Each fallback
        is counted in ``degraded_fallbacks``. ``False`` (the default)
        propagates :class:`~repro.errors.ReplicaUnavailableError`.
    batched:
        Selects nothing; accepted only because the frozen ``bench/``
        still spells ``batched=True``. ``False`` raises.

    Callers speak original node IDs throughout: roots go through
    ``store.to_internal`` on the way in and sampled layers through
    ``store.to_original`` on the way out (both the identity unless the
    store carries a locality-layout relabeling).
    """

    def __init__(
        self,
        store: PartitionedStore,
        seed: int = 0,
        worker_partition: Optional[int] = None,
        selector=select_uniform,
        degraded_ok: bool = False,
        batched: bool = True,
    ) -> None:
        if not batched:
            raise ConfigurationError(
                "MultiHopSampler has one (vectorized) path; the per-node walk "
                "is the oracle repro.framework.replay.ReferenceWalkSampler"
            )
        self.store = store
        self.rng = np.random.default_rng(seed)
        self.worker_partition = worker_partition
        self.selector = selector
        self.degraded_ok = degraded_ok
        #: The one object through which the sampler (and the bucket
        #: selectors it calls) reaches every array primitive.
        self.kernels = NUMPY_KERNELS
        #: Reads completed without data because a shard was unreachable.
        self.degraded_fallbacks = 0
        # Weighted selectors take an extra ``weights`` argument, fed
        # from the graph's per-edge attributes when present.
        self._selector_takes_weights = (
            "weights" in inspect.signature(selector).parameters
        )

    @property
    def fault_stats(self):
        """Store-level retry/hedge counters (``None`` without a
        reliable path configured on the store)."""
        return self.store.fault_stats

    def close(self) -> None:
        """Release sampler resources: none here; the sharded subclass
        shuts down its worker processes, if it has any."""

    # ------------------------------------------------------------- sampling
    def sample(self, request: SampleRequest) -> SampleResult:
        """Execute a multi-hop sampling request.

        The whole request — every hop and the attribute fetches — runs
        under one pinned store view, so on a mutable store a sample
        never observes two epochs even while mutations land between
        hops. On the static store the pin is a no-op.
        """
        with self.store.read_view():
            roots = self._internal_roots(request)
            layers, dedups = self._expand(
                roots, request.fanouts, [(self.rng, roots.size)]
            )
            return self._finish_result(request, layers, dedups)

    def _internal_roots(self, request: SampleRequest) -> np.ndarray:
        """The request's roots in store IDs: layer 0 of its result, a
        fresh array."""
        roots = request.roots
        if roots.max(initial=-1) >= self.store.graph.num_nodes or roots.min(initial=0) < 0:
            raise GraphError("request roots outside [0, num_nodes)")
        return self.store.to_internal(roots).copy()

    def _expand(self, roots: np.ndarray, fanouts, streams):
        """Hop expansion in store IDs: ``(layers, dedups)``.

        ``streams`` is a list of ``(generator, root count)`` pairs that
        split the roots into contiguous ranges, in root order: each
        range's picks draw on its own generator exactly as a separate
        expansion of those roots alone would, while the whole expansion
        shares one dedup and one store gather per layer. Each expanded
        layer's dedup triple serves both its hop expansion and its
        attribute fetch; the last layer is never expanded, so its entry
        is ``None``.
        """
        layers = [roots]
        dedups = []
        width = 1
        num_nodes = self.store.graph.num_nodes
        for fanout in fanouts:
            flat = layers[-1].reshape(-1)
            dedups.append(dedup_ids(flat, num_nodes))
            sampled = self._sample_neighbors_batch(
                flat,
                fanout,
                dedups[-1],
                [(rng, count * width) for rng, count in streams],
            )
            width *= fanout
            layers.append(sampled.reshape(roots.size, width))
        dedups.append(None)
        return layers, dedups

    def _finish_result(self, request: SampleRequest, layers, dedups) -> SampleResult:
        """Attribute fetch in store IDs, then the layers back in the
        caller's IDs. The caller must hold the store's ``read_view()``
        pin."""
        result = SampleResult()
        if request.with_attributes:
            fetched = [self._fetch_attributes(*pair) for pair in zip(layers, dedups)]
            result.attribute_rows, result.attribute_index = map(list, zip(*fetched))
        result.layers = [self.store.to_original(layer) for layer in layers]
        return result

    def _sample_neighbors_batch(
        self, flat: np.ndarray, fanout: int, dedup, streams
    ) -> np.ndarray:
        """Sample ``fanout`` neighbors for every frontier position at once.

        ``dedup`` is the frontier's :func:`dedup_ids` triple; ``streams``
        is a list of ``(generator, position count)`` pairs splitting the
        frontier into contiguous ranges. Adjacency of the distinct nodes
        is gathered in one store batch call. One stable argsort on the
        key ``(stream, degree)`` orders every range's positions by
        degree at once; each range's slice of that order is then picked
        on the range's generator, either in one ragged RNG call
        (degree-only selectors; one flat gather for the whole frontier
        follows) or bucket by bucket through the selector's ``(k, d)``
        variant (weighted selectors). Zero-degree (and degraded)
        positions sample themselves (AliGraph's self-loop fallback).
        """
        out = np.empty((flat.size, fanout), dtype=np.int64)
        if flat.size == 0:
            return out
        unique, inverse, counts = dedup
        values, offsets = self._neighbors_batch(unique, counts)
        degrees = offsets[1:] - offsets[:-1]
        position_degrees = degrees[inverse]
        zero = position_degrees == 0
        if zero.any():
            out[zero] = flat[zero, None]
        graph = self.store.graph
        use_weights = self._selector_takes_weights and graph.edge_attr is not None
        bucket_selector = get_bucket_selector(self.selector)
        if bucket_selector is None:
            # Unknown (custom) selector: apply it per position. The
            # adjacency fetch is still amortized across the frontier.
            stop = 0
            for rng, size in streams:
                start, stop = stop, stop + size
                for i in start + np.flatnonzero(~zero[start:stop]):
                    u = inverse[i]
                    neighbors = values[offsets[u] : offsets[u + 1]]
                    if use_weights:
                        edge_start = int(graph.indptr[unique[u]])
                        weights = graph.edge_attr[edge_start : edge_start + neighbors.size]
                        out[i] = np.asarray(
                            self.selector(neighbors, fanout, rng, weights=weights),
                            dtype=np.int64,
                        )
                    else:
                        out[i] = np.asarray(
                            self.selector(neighbors, fanout, rng), dtype=np.int64
                        )
            return out
        nonzero = np.flatnonzero(~zero)
        sizes = [size for _rng, size in streams]
        key = position_degrees[nonzero]
        if len(streams) > 1:
            # Ranges are contiguous, so a stable sort on (stream, degree)
            # is the concatenation of each range's own stable degree sort.
            stream_of = np.repeat(np.arange(len(streams)), sizes)[nonzero]
            key = stream_of * (int(degrees.max()) + 1) + key
        order = np.argsort(key, kind="stable")
        sorted_positions = nonzero[order]
        sorted_degrees = position_degrees[sorted_positions]
        # ``nonzero`` is ascending, so the sorted slice of range j starts
        # at the count of nonzero positions before the range's start.
        bounds = np.searchsorted(nonzero, np.cumsum([0] + sizes)).tolist()
        picker = get_ragged_picker(self.selector)
        if picker is not None:
            picks = np.empty((nonzero.size, fanout), dtype=np.int64)
            for (rng, _size), lo, hi in zip(streams, bounds[:-1], bounds[1:]):
                if hi > lo:
                    picks[lo:hi] = picker(sorted_degrees[lo:hi], fanout, rng)
            index = offsets[inverse[sorted_positions], None] + picks
            out[sorted_positions] = self.kernels.take_picks(
                values[None, :], index.reshape(1, -1)
            ).reshape(index.shape)
            return out
        # Weighted selectors need a CDF per row: group each range's
        # positions by degree so each bucket is a dense (k, d) matrix.
        for (rng, _size), lo, hi in zip(streams, bounds[:-1], bounds[1:]):
            if hi == lo:
                continue
            boundaries = np.flatnonzero(np.diff(sorted_degrees[lo:hi])) + 1
            for bucket in np.split(sorted_positions[lo:hi], boundaries):
                d = int(position_degrees[bucket[0]])
                u = inverse[bucket]
                matrix = self.kernels.gather_rows(values, offsets[u], d)
                if use_weights:
                    edge_starts = graph.indptr[unique[u]].astype(np.int64)
                    weights = self.kernels.gather_rows(graph.edge_attr, edge_starts, d)
                    out[bucket] = bucket_selector(
                        matrix, fanout, rng, weights=weights, kernels=self.kernels
                    )
                else:
                    out[bucket] = bucket_selector(
                        matrix, fanout, rng, kernels=self.kernels
                    )
        return out

    def _neighbors_batch(self, unique: np.ndarray, counts: np.ndarray):
        """Adjacency for deduplicated nodes: one store batch.

        Returns ``(values, offsets)`` in concatenated-CSR form; a degraded
        node owns an empty slice.
        Accounting matches the per-node walk occurrence for occurrence:
        a node's ``c`` occurrences are charged to the store as ``c``
        reads through ``counts=``.
        """
        batch = self.store.get_neighbors_batch(
            unique,
            self.worker_partition,
            counts=counts,
            degraded_ok=self.degraded_ok,
        )
        self.degraded_fallbacks += batch.fallbacks
        return batch.values, batch.offsets

    def _fetch_attributes(self, layer: np.ndarray, dedup):
        """Attribute rows of one sampled layer: dedup + one store batch call.

        Returns ``(rows, index)``: the layer's distinct rows, each gathered
        once, and the dedup inverse shaped like ``layer``; ``rows[index]``
        is built only when ``SampleResult.attributes`` is read. ``dedup`` is
        the layer's :func:`dedup_ids` triple if already computed, else ``None``.

        Occurrence accounting matches the per-node walk: a node's ``c``
        occurrences touch the store ``c`` times. Degraded rows stay zero.
        """
        flat = layer.reshape(-1)
        unique, inverse, counts = (
            dedup_ids(flat, self.store.graph.num_nodes) if dedup is None else dedup
        )
        batch = self.store.get_attributes_batch(
            unique,
            self.worker_partition,
            counts=counts,
            degraded_ok=self.degraded_ok,
        )
        self.degraded_fallbacks += batch.fallbacks
        return batch.rows, inverse.reshape(layer.shape)

    # ------------------------------------------------------ negative sample
    def _neighbors(self, node: int) -> np.ndarray:
        # ``negative_sample`` only: a one-node read is not a batched
        # gather, so it must not charge the store's gather counters.
        try:
            return self.store.get_neighbors(node, self.worker_partition)
        except ReplicaUnavailableError:
            if not self.degraded_ok:
                raise
            # Degraded completion: treat the node as isolated.
            self.degraded_fallbacks += 1
            return np.empty(0, dtype=np.int64)

    def negative_sample(self, request: NegativeSampleRequest) -> np.ndarray:
        """Sample ``rate`` negatives per pair, rejecting true neighbors.

        Returns an ``(n_pairs, rate)`` array of node IDs that are not
        out-neighbors of the pair's source.
        """
        with self.store.read_view():
            return self._negative_sample_pinned(request)

    def _negative_sample_pinned(self, request: NegativeSampleRequest) -> np.ndarray:
        num_nodes = self.store.graph.num_nodes
        if num_nodes < 2:
            raise ConfigurationError(
                "negative sampling needs at least 2 nodes in the graph"
            )
        rate = request.rate
        if request.pairs.max(initial=-1) >= num_nodes or request.pairs.min(initial=0) < 0:
            raise GraphError("negative-sample pairs outside [0, num_nodes)")
        # Rejection runs in store IDs (uniform over store IDs is uniform
        # over nodes); results map back at the end.
        pairs = self.store.to_internal(request.pairs)
        out = np.empty((pairs.shape[0], rate), dtype=np.int64)
        # RNG consumption is row-by-row in pair order, drawn in
        # rejection blocks per row: each row is an independent uniform
        # rejection sampler over the non-neighbor set.
        for row, (src, _dst) in enumerate(pairs):
            src = int(src)
            forbidden = np.union1d(
                self._neighbors(src), np.asarray([src], dtype=np.int64)
            )
            if forbidden.size >= num_nodes:
                # Every node is forbidden: keep the historical escape of
                # accepting any draw rather than looping forever.
                out[row] = self.rng.integers(0, num_nodes, size=rate)
                continue
            accept_p = 1.0 - forbidden.size / num_nodes
            filled = 0
            while filled < rate:
                need = rate - filled
                # Oversize the block by the expected rejection rate so
                # high-degree sources converge in O(1) rounds instead
                # of degenerating draw-by-draw.
                block = min(
                    max(need * 2, int(need / accept_p) + 1),
                    max(4 * rate, 1024),
                )
                draws = self.rng.integers(0, num_nodes, size=block)
                accepted = draws[~np.isin(draws, forbidden)]
                take = min(accepted.size, need)
                out[row, filled : filled + take] = accepted[:take]
                filled += take
        return self.store.to_original(out)
