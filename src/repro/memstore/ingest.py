"""Online-mutation ingest path: a PartitionedStore over a DynamicGraph.

E-commerce graphs mutate continuously (§3.1: "the data size keeps
expanding"), and AliGraph — the framework layer the reproduction models
— supports dynamic graphs. :class:`DynamicPartitionedStore` closes the
gap between :class:`~repro.graph.dynamic.DynamicGraph` (delta-CSR +
compaction, previously an island) and the serving stack: it speaks the
full :class:`~repro.memstore.store.PartitionedStore` read API, accepts
interleaved mutations via :meth:`apply`, and guarantees that one
multi-hop sample reads one consistent snapshot even while edges land
and compaction swaps the CSR base underneath it.

Consistency model
-----------------
* :meth:`read_view` pins a :class:`~repro.graph.dynamic.GraphView`
  (an immutable epoch token) for the duration of a ``with`` block;
  every read inside resolves against that view. The samplers wrap each
  ``sample()`` call in it, so a 3-hop walk never sees hop 2 against a
  newer epoch than hop 1 — the "no torn multi-hop reads" invariant.
* Mutations applied while a view is pinned land in the underlying
  graph immediately but stay invisible to the pinned reader; the next
  unpinned read (or the next ``read_view``) observes them.
* Every mutated source node is invalidated in each registered
  :class:`~repro.framework.cache.HotNodeCache` (both facets). Nodes
  mutated *while pinned* are re-invalidated when the pin is released:
  the pinned sampler may legitimately re-cache pinned-epoch data after
  the mutation-time invalidation ran, and without the unpin sweep that
  stale entry would outlive the pin.

Accounting
----------
At mutation rate zero the store is accounting-identical (and
result-identical) to a static :class:`PartitionedStore` over the
equivalent CSR: base-resident adjacency costs the same index lookup +
offset pair + ID block. Delta edges cost one *extra* structure access
(the append-log block read, ``delta_degree * id_bytes``), recorded only
when the delta portion is non-empty and tallied in ``delta_hits`` /
``delta_edges_read`` — so the overhead of reading the uncompacted log
is visible in ``AccessSummary`` and the counters, and vanishes
byte-for-byte when no mutations ever landed.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.framework.cache import HotNodeCache
from repro.graph.dynamic import DynamicGraph, GraphView
from repro.graph.partition import Partitioner
from repro.memstore.store import AccessKind, NeighborBatch, PartitionedStore

#: Mutation kinds accepted by :meth:`DynamicPartitionedStore.apply`.
EDGE = "edge"
NODE = "node"


@dataclass(frozen=True)
class Mutation:
    """One graph mutation event on the ingest timeline.

    ``kind == "edge"`` adds the directed edge ``src -> dst``;
    ``kind == "node"`` appends a fresh node (``src``/``dst`` unused)
    and, when ``attach_to`` is set, one edge from the new node to it.
    ``time_s`` places the event on a serving timeline (0.0 for
    benchmarks that apply mutations between batches).
    """

    kind: str
    src: int = 0
    dst: int = 0
    attach_to: Optional[int] = None
    time_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in (EDGE, NODE):
            raise ConfigurationError(
                f"mutation kind must be '{EDGE}' or '{NODE}', got {self.kind!r}"
            )


def growth_trace(
    num_nodes: int,
    num_events: int,
    new_node_probability: float = 0.05,
    duration_s: float = 0.0,
    seed: int = 0,
) -> List[Mutation]:
    """Deterministic preferential-attachment mutation trace.

    The online twin of :func:`repro.graph.dynamic.simulate_growth`:
    same Zipf-biased destination choice (draws shifted by one so node 0
    is the most popular target), but emitted as a replayable list of
    :class:`Mutation` events — optionally spread uniformly over
    ``duration_s`` for gateway timelines — instead of applied in place.
    ``num_nodes`` is the node-ID space at trace start; node events
    enlarge it for subsequent draws exactly like ``simulate_growth``.
    """
    if num_nodes <= 0:
        raise ConfigurationError(f"num_nodes must be positive, got {num_nodes}")
    if num_events < 0:
        raise ConfigurationError(f"num_events must be >= 0, got {num_events}")
    if not 0.0 <= new_node_probability <= 1.0:
        raise ConfigurationError(
            f"new_node_probability must be in [0, 1], got {new_node_probability}"
        )
    rng = np.random.default_rng(seed)
    trace: List[Mutation] = []
    population = num_nodes
    for i in range(num_events):
        time_s = duration_s * i / num_events if duration_s else 0.0
        if rng.random() < new_node_probability:
            attach = int(rng.integers(0, population))
            trace.append(Mutation(NODE, attach_to=attach, time_s=time_s))
            population += 1
        else:
            src = int(rng.integers(0, population))
            dst = (int(rng.zipf(1.8)) - 1) % population
            trace.append(Mutation(EDGE, src=src, dst=dst, time_s=time_s))
    return trace


@dataclass
class IngestStats:
    """Counters for the online-mutation path."""

    #: Mutations applied via :meth:`DynamicPartitionedStore.apply`.
    mutations: int = 0
    edges_added: int = 0
    nodes_added: int = 0
    #: Cache entries dropped across all registered caches.
    cache_invalidations: int = 0
    #: Neighbor reads whose answer included uncompacted delta edges.
    delta_hits: int = 0
    #: Total delta edges returned by those reads (occurrence-weighted).
    delta_edges_read: int = 0
    #: Compactions observed on the backing graph while this store owned it.
    compactions: int = 0


class DynamicPartitionedStore(PartitionedStore):
    """A :class:`PartitionedStore` whose graph accepts online mutations.

    ``self.graph`` is always a :class:`~repro.graph.dynamic.GraphView`:
    the *live* view (refreshed after each mutation batch) when no read
    is pinned, or the *pinned* snapshot inside :meth:`read_view`. All
    inherited attribute-path code works unchanged against the view's
    CSR-compatible surface; the neighbor path is overridden because the
    base implementation indexes the CSR arrays directly.

    The fault-injection ``reliability`` path is not supported on the
    mutable store (replicated append logs are future work) — pass
    ``reliability=None``.
    """

    def __init__(
        self,
        dynamic: DynamicGraph,
        partitioner: Partitioner,
        reliability: Optional[object] = None,
    ) -> None:
        if reliability is not None:
            raise ConfigurationError(
                "DynamicPartitionedStore does not support a reliability path; "
                "use a static PartitionedStore for fault-injection studies"
            )
        self.dynamic = dynamic
        super().__init__(dynamic.view(), partitioner)
        self.ingest_stats = IngestStats()
        self._caches: List[HotNodeCache] = []
        self._pin_depth = 0
        #: Nodes mutated while a view was pinned: their cache entries
        #: must be invalidated *again* on unpin (see module docstring).
        self._touched_since_pin: Set[int] = set()
        #: Distinct epochs observed by reads inside the innermost
        #: pinned window — the "no torn multi-hop reads" witness.
        self._sample_epochs: Set[int] = set()
        self._last_sample_epochs: Tuple[int, ...] = ()
        self._seen_compactions = dynamic.compactions

    # ------------------------------------------------------------- views
    @property
    def view(self) -> GraphView:
        """The view reads currently resolve against (pinned or live)."""
        return self.graph

    @property
    def epoch(self) -> int:
        """Epoch of the current read view."""
        return self.graph.epoch

    def refresh(self) -> GraphView:
        """Re-mint the live view from the underlying graph.

        No-op while a read is pinned: the pinned snapshot must keep
        serving its epoch until the pin is released.
        """
        if self._pin_depth == 0:
            self.graph = self.dynamic.view()
        return self.graph

    @contextlib.contextmanager
    def read_view(self) -> Iterator["DynamicPartitionedStore"]:
        """Pin one epoch for a whole multi-hop read (reentrant).

        On entry (outermost only) the live view is re-minted and
        frozen; every read inside the block resolves against it and
        records its epoch into the torn-read witness set. On exit the
        pin is released, the live view refreshed, and any node mutated
        during the window has its cache entries invalidated again —
        the pinned reader may have re-cached pinned-epoch data after
        the mutation-time invalidation.
        """
        if self._pin_depth == 0:
            self.graph = self.dynamic.view()
            self._sample_epochs = set()
        self._pin_depth += 1
        try:
            yield self
        finally:
            self._pin_depth -= 1
            if self._pin_depth == 0:
                self._last_sample_epochs = tuple(sorted(self._sample_epochs))
                touched = self._touched_since_pin
                self._touched_since_pin = set()
                # Sorted sweep: cache_invalidations is occurrence-
                # accounted, and set order varies per process.
                for node in sorted(touched):
                    self._invalidate_node(node)
                self.graph = self.dynamic.view()

    @property
    def pinned(self) -> bool:
        return self._pin_depth > 0

    @property
    def last_sample_epochs(self) -> Tuple[int, ...]:
        """Distinct epochs observed by the most recent pinned read.

        The consistency invariant is ``len(...) <= 1``: a multi-hop
        sample that touched the store observed exactly one epoch.
        """
        return self._last_sample_epochs

    def _observe_epoch(self) -> None:
        if self._pin_depth:
            self._sample_epochs.add(self.graph.epoch)

    # --------------------------------------------------------------- caches
    def register_cache(self, cache: HotNodeCache) -> None:
        """Subscribe a cache to invalidation on mutated nodes."""
        if cache not in self._caches:
            self._caches.append(cache)

    def _invalidate_node(self, node: int) -> None:
        for cache in self._caches:
            if cache.invalidate(node):
                self.ingest_stats.cache_invalidations += 1

    # ------------------------------------------------------------ mutations
    def apply(self, mutations: Iterable[Mutation]) -> int:
        """Apply a batch of mutations to the underlying graph.

        Touched source nodes are invalidated in every registered cache
        immediately (and again on unpin if a read is pinned). Returns
        the number of mutations applied. Compaction may run mid-batch
        when the delta crosses its threshold; pinned views are immune
        by construction.
        """
        applied = 0
        for mutation in mutations:
            if mutation.kind == NODE:
                new = self.dynamic.add_node()
                self.ingest_stats.nodes_added += 1
                if mutation.attach_to is not None:
                    self.dynamic.add_edge(new, mutation.attach_to)
                    self.ingest_stats.edges_added += 1
                    self._note_touched(new)
            else:
                self.dynamic.add_edge(mutation.src, mutation.dst)
                self.ingest_stats.edges_added += 1
                self._note_touched(mutation.src)
            applied += 1
        self.ingest_stats.mutations += applied
        if self.dynamic.compactions != self._seen_compactions:
            self.ingest_stats.compactions += (
                self.dynamic.compactions - self._seen_compactions
            )
            self._seen_compactions = self.dynamic.compactions
        if applied:
            self.refresh()
        return applied

    def _note_touched(self, node: int) -> None:
        self._invalidate_node(node)
        if self._pin_depth:
            self._touched_since_pin.add(node)

    # --------------------------------------------------------------- reads
    def get_neighbors(
        self, node: int, from_partition: Optional[int] = None
    ) -> np.ndarray:
        """Adjacency of ``node`` as of the current view's epoch.

        Accounting matches the static store for the base-resident
        block (index + offset pair + ID block); a non-empty delta
        portion adds one extra structure access for the append-log
        block and bumps the delta counters.
        """
        self._observe_epoch()
        view = self.graph
        local = bool(
            self._locality(np.asarray([node], dtype=np.int64), from_partition)[0]
        )
        neighbors = view.neighbors(node)
        base_deg = view.base_degree(node)
        delta_deg = view.delta_degree(node)
        self._record(AccessKind.STRUCTURE, self.index_entry_bytes, local)
        self._record(AccessKind.STRUCTURE, self.offset_entry_bytes, local)
        if base_deg:
            self._record(AccessKind.STRUCTURE, base_deg * self.id_bytes, local)
        if delta_deg:
            self._record(AccessKind.STRUCTURE, delta_deg * self.id_bytes, local)
            self.ingest_stats.delta_hits += 1
            self.ingest_stats.delta_edges_read += delta_deg
        return neighbors

    def get_neighbors_batch(
        self,
        nodes: Sequence[int],
        from_partition: Optional[int] = None,
        counts: Optional[np.ndarray] = None,
        degraded_ok: bool = False,
    ) -> NeighborBatch:
        """Vectorized adjacency gather against the current view.

        Per node the accounting equals ``counts[i]`` calls of
        :meth:`get_neighbors` (index + offset + base ID block + delta
        ID block where non-empty); every node is served — there is no
        reliability path to degrade.
        """
        self._observe_epoch()
        view = self.graph
        nodes = np.asarray(nodes, dtype=np.int64)
        if counts is None:
            counts = np.ones(nodes.shape, dtype=np.int64)
        else:
            counts = np.asarray(counts, dtype=np.int64)
            if counts.shape != nodes.shape:
                raise ConfigurationError(
                    f"counts shape {counts.shape} != nodes shape {nodes.shape}"
                )
        values, offsets, base_deg, delta_deg = view.gather(nodes)
        locality = self._locality(nodes, from_partition)
        self._record_batch(
            AccessKind.STRUCTURE,
            self.index_entry_bytes,
            locality,
            counts,
        )
        self._record_batch(
            AccessKind.STRUCTURE,
            self.offset_entry_bytes,
            locality,
            counts,
        )
        has_base = base_deg > 0
        if has_base.any():
            self._record_batch(
                AccessKind.STRUCTURE,
                base_deg[has_base] * self.id_bytes,
                locality[has_base],
                counts[has_base],
            )
        has_delta = delta_deg > 0
        if has_delta.any():
            self._record_batch(
                AccessKind.STRUCTURE,
                delta_deg[has_delta] * self.id_bytes,
                locality[has_delta],
                counts[has_delta],
            )
            self.ingest_stats.delta_hits += int(counts[has_delta].sum())
            self.ingest_stats.delta_edges_read += int(
                (delta_deg[has_delta] * counts[has_delta]).sum()
            )
        served = np.ones(nodes.shape, dtype=bool)
        return NeighborBatch(nodes, values, offsets, served, 0)

    def get_attributes_batch(
        self,
        nodes: Sequence[int],
        from_partition: Optional[int] = None,
        counts: Optional[np.ndarray] = None,
        degraded_ok: bool = False,
    ):
        self._observe_epoch()
        return super().get_attributes_batch(
            nodes, from_partition=from_partition, counts=counts,
            degraded_ok=degraded_ok,
        )

    def get_attributes(
        self,
        nodes: Sequence[int],
        from_partition: Optional[int] = None,
    ) -> np.ndarray:
        self._observe_epoch()
        return super().get_attributes(nodes, from_partition=from_partition)
