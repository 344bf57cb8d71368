"""Replay a batched sampling result through the reference walk.

The batched fast path and the per-node reference walk consume the RNG
in different orders, so two live runs sample different layers and their
``AccessSummary`` totals legitimately differ (ID-block bytes depend on
which nodes got sampled). The equivalence contract is therefore stated
*conditionally*: for any fixed sampled layers, the batched path's
accounting — access counts, bytes, locality split, cache hit/miss
counters, degraded fallbacks — is identical to the reference walk's.

This module checks that contract mechanically: :class:`ReplaySelector`
feeds the batched result's own picks back through
:class:`~repro.framework.sampler.MultiHopSampler`'s per-node walk, so
the walk reproduces the exact same layers and its store/cache counters
can be compared 1:1 with the batched run's. The tests, the pytest
benchmarks and the ``bench/`` workload checks all lean on it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.framework.cache import HotNodeCache
from repro.framework.requests import SampleRequest, SampleResult
from repro.framework.sampler import MultiHopSampler
from repro.graph.csr import CSRGraph
from repro.memstore.store import PartitionedStore


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
        self,
        result: SampleResult,
        request: SampleRequest,
        graph: CSRGraph,
        relabeling=None,
    ) -> None:
        self._rows = []
        for hop, fanout in enumerate(request.fanouts):
            parents = result.layers[hop].reshape(-1)
            picks = result.layers[hop + 1].reshape(parents.size, fanout)
            if relabeling is not None:
                # Recorded layers are in original IDs; the walk (and
                # ``graph``) run in the relabeled internal space.
                parents = relabeling.to_internal(parents)
                picks = relabeling.to_internal(picks)
            degrees = _parent_degrees(graph, parents)
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
    relabeling=None,
) -> SampleResult:
    """Re-run the reference walk pinned to ``result``'s sampled layers.

    ``store`` should be a fresh store over the same graph/partitioner
    (and typically no reliability path — replay assumes every position's
    neighbor list has its full graph degree, which degraded completions
    violate). When the result was sampled through a locality layout,
    pass the same ``relabeling`` so the recorded original-ID layers are
    replayed against the internal-ID store. After this returns,
    ``store.summary`` and ``cache`` counters hold exactly what the
    per-node reference walk charges for those layers, ready to compare
    against the batched run's.
    """
    selector = ReplaySelector(result, request, store.graph, relabeling=relabeling)
    sampler = MultiHopSampler(
        store,
        seed=0,
        cache=cache,
        worker_partition=worker_partition,
        selector=selector,
        relabeling=relabeling,
    )
    replayed = sampler.sample(request)
    for recorded, walked in zip(result.layers, replayed.layers):
        if not np.array_equal(recorded, walked):
            raise ConfigurationError(
                "replay diverged from the recorded layers; the result was "
                "not produced on this graph"
            )
    return replayed
