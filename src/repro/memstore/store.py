"""Partitioned in-memory graph store.

This is the execution substrate standing in for AliGraph's distributed
graph service: the graph physically lives in one process here, but every
access is attributed to the partition that owns the data, and recorded
as either a fine-grained *structure* access (index lookup, CSR offsets,
neighbor IDs) or a bulk *attribute* access. The resulting trace drives
the Figure 2(c) access-mix characterization and the performance models.
"""

from __future__ import annotations

import contextlib
import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError, PartitionError, ReplicaUnavailableError
from repro.graph.csr import CSRGraph
from repro.graph.partition import Partitioner

if TYPE_CHECKING:  # import cycle: faults rides the axe event kernel
    from repro.memstore.faults import ReliableReadPath


class AccessKind(enum.Enum):
    """What a memory access fetched."""

    #: Index lookups, CSR offsets, neighbor-ID reads: 8-64B indirect.
    STRUCTURE = "structure"
    #: Node attribute rows: attr_len * 4 bytes each.
    ATTRIBUTE = "attribute"


@dataclass(frozen=True)
class AccessRecord:
    """One logical memory access issued by the sampler."""

    kind: AccessKind
    nbytes: int
    local: bool


@dataclass
class AccessSummary:
    """Aggregated access statistics."""

    structure_count: int = 0
    structure_bytes: int = 0
    attribute_count: int = 0
    attribute_bytes: int = 0
    remote_count: int = 0
    remote_bytes: int = 0
    #: Gather-contiguity accounting (populated only on stores constructed
    #: with ``track_locality=True``; zero otherwise so summary equality
    #: against untracked stores still holds). Each batched gather of
    #: ``n`` distinct nodes contributes ``n`` to ``gather_nodes``, its
    #: number of maximal consecutive-ID runs to ``gather_runs``, and the
    #: byte distance from its first to its last touched entry to
    #: ``gather_span_bytes`` — fewer runs over the same nodes and a
    #: tighter span mean the gather walked contiguous memory.
    gather_nodes: int = 0
    gather_runs: int = 0
    gather_span_bytes: int = 0
    #: Neighborhood-cache accounting (populated only when the pipelined
    #: trainer runs with a ``NeighborhoodCache``; zero otherwise so
    #: summary equality against cache-off runs still holds). Counted per
    #: root occurrence: a root whose multi-hop layers were served from
    #: the cache contributes one ``neighborhood_hits``; one that had to
    #: be re-sampled contributes one ``neighborhood_misses``.
    neighborhood_hits: int = 0
    neighborhood_misses: int = 0

    def add(self, other: "AccessSummary") -> "AccessSummary":
        """Accumulate ``other`` into this summary (shard-merge support).

        Accounting counters only ever mutate inside this module; shard
        workers therefore ship their local :class:`AccessSummary` back
        to the coordinator, which merges through here (or through
        :meth:`PartitionedStore.absorb_summary`).
        """
        self.structure_count += other.structure_count
        self.structure_bytes += other.structure_bytes
        self.attribute_count += other.attribute_count
        self.attribute_bytes += other.attribute_bytes
        self.remote_count += other.remote_count
        self.remote_bytes += other.remote_bytes
        self.gather_nodes += other.gather_nodes
        self.gather_runs += other.gather_runs
        self.gather_span_bytes += other.gather_span_bytes
        self.neighborhood_hits += other.neighborhood_hits
        self.neighborhood_misses += other.neighborhood_misses
        return self

    @property
    def total_count(self) -> int:
        return self.structure_count + self.attribute_count

    @property
    def total_bytes(self) -> int:
        return self.structure_bytes + self.attribute_bytes

    @property
    def structure_count_fraction(self) -> float:
        """Fraction of accesses that are fine-grained structure accesses
        (the ~48% average of Figure 2c)."""
        if self.total_count == 0:
            return 0.0
        return self.structure_count / self.total_count

    @property
    def remote_count_fraction(self) -> float:
        if self.total_count == 0:
            return 0.0
        return self.remote_count / self.total_count

    @property
    def remote_bytes_fraction(self) -> float:
        if self.total_bytes == 0:
            return 0.0
        return self.remote_bytes / self.total_bytes

    @property
    def mean_run_length(self) -> float:
        """Average contiguous-run length across tracked gathers.

        1.0 means every gathered node was an island; higher means hop
        frontiers landed on consecutive array entries.
        """
        if self.gather_runs == 0:
            return 0.0
        return self.gather_nodes / self.gather_runs


@dataclass
class NeighborBatch:
    """Result of one vectorized adjacency gather.

    Indexing and iteration yield per-node adjacency arrays (views into
    ``values``), so callers written against the old list-of-arrays
    return type keep working.
    """

    #: The (typically deduplicated) nodes that were gathered.
    nodes: np.ndarray
    #: All neighbor IDs, concatenated in node order.
    values: np.ndarray
    #: Prefix offsets into ``values``; node ``i`` owns
    #: ``values[offsets[i]:offsets[i + 1]]``. Degraded nodes own an
    #: empty slice.
    offsets: np.ndarray
    #: False where every occurrence-attempt degraded (shard unreachable).
    served: np.ndarray
    #: Occurrence-attempts that completed without data.
    fallbacks: int = 0

    def __len__(self) -> int:
        return int(self.nodes.size)

    def __getitem__(self, i: int) -> np.ndarray:
        return self.values[self.offsets[i] : self.offsets[i + 1]]

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]


@dataclass
class AttributeBatch:
    """Result of one vectorized attribute gather.

    ``rows[i]`` is zero where ``served[i]`` is False (degraded
    completion, mirroring the sampler's zero-row fallback).
    """

    nodes: np.ndarray
    rows: np.ndarray
    served: np.ndarray
    fallbacks: int = 0

    def __len__(self) -> int:
        return int(self.nodes.size)


class PartitionedStore:
    """Graph storage sharded across ``partitioner.num_partitions`` servers.

    Parameters
    ----------
    graph:
        The (scaled) dataset instance.
    partitioner:
        Node-to-server ownership map.
    reliability:
        Optional fault-tolerant remote path
        (:class:`~repro.memstore.faults.ReliableReadPath`). When set,
        every remote access is additionally executed against it —
        replica selection, timeouts, retries, hedged reads — and may
        raise :class:`~repro.errors.ReplicaUnavailableError` when no
        replica of the owning partition answers before the deadline.
        ``None`` (the default) keeps the store's historical zero-fault
        behavior bit-for-bit.
    track_locality:
        Record gather-contiguity counters (``gather_nodes`` /
        ``gather_runs`` / ``gather_span_bytes``) for every batched
        adjacency/attribute gather. ``False`` (the default) leaves the
        counters at zero: the per-node replay walk does not reproduce
        the batched gather pattern, so parity checks compare untracked
        stores.
    """

    #: Size of one node-index lookup (hash bucket entry).
    index_entry_bytes = 16
    #: Size of one CSR offset-pair read.
    offset_entry_bytes = 16
    #: Size of one neighbor ID on the wire.
    id_bytes = 8

    def __init__(
        self,
        graph: CSRGraph,
        partitioner: Partitioner,
        reliability: Optional["ReliableReadPath"] = None,
        track_locality: bool = False,
    ) -> None:
        self.graph = graph
        self.partitioner = partitioner
        self.reliability = reliability
        self.track_locality = track_locality
        self._trace: List[AccessRecord] = []
        self._summary = AccessSummary()
        self.tracing = False

    @property
    def num_partitions(self) -> int:
        return self.partitioner.num_partitions

    @contextlib.contextmanager
    def read_view(self) -> Iterator["PartitionedStore"]:
        """Pin one consistent graph snapshot for the duration of the block.

        The static store's graph never changes, so this is a no-op hook;
        :class:`~repro.memstore.ingest.DynamicPartitionedStore` overrides
        it to freeze an epoch so a multi-hop sample never observes a
        mutation landing between its hops. Samplers wrap each sample in
        this unconditionally, keeping one code path for both stores.
        """
        yield self

    # ---------------------------------------------------------------- trace
    def reset_trace(self) -> None:
        """Clear the recorded trace and summary."""
        self._trace.clear()
        self._summary = AccessSummary()

    @property
    def trace(self) -> Tuple[AccessRecord, ...]:
        """Recorded per-access trace (only populated when ``tracing``)."""
        return tuple(self._trace)

    @property
    def summary(self) -> AccessSummary:
        """Aggregated access statistics since the last reset."""
        return self._summary

    def absorb_summary(self, delta: AccessSummary) -> None:
        """Merge a shard worker's access totals into this store's summary.

        The parallel execution engine runs per-shard samplers in worker
        processes, each over its own store attached to the shared graph
        plane; their summaries come back as deltas and are folded into
        the coordinator store here, so ``store.summary`` stays the
        single merged view of a run. Per-access traces do not cross the
        process boundary (``tracing`` captures coordinator accesses
        only).
        """
        self._summary.add(delta)

    def record_neighborhood(self, hits: int, misses: int) -> None:
        """Fold neighborhood-cache hit/miss counts into the summary.

        The :class:`~repro.gnn.pipeline.NeighborhoodCache` owns its own
        occurrence-accurate counters; accounting counters on
        :class:`AccessSummary` only mutate inside this module, so the
        trainer reports per-epoch deltas through here.
        """
        if hits < 0 or misses < 0:
            raise ConfigurationError(
                f"hit/miss deltas must be non-negative, got {hits}/{misses}"
            )
        self._summary.neighborhood_hits += hits
        self._summary.neighborhood_misses += misses

    def _record(self, kind: AccessKind, nbytes: int, local: bool) -> None:
        if kind is AccessKind.STRUCTURE:
            self._summary.structure_count += 1
            self._summary.structure_bytes += nbytes
        else:
            self._summary.attribute_count += 1
            self._summary.attribute_bytes += nbytes
        if not local:
            self._summary.remote_count += 1
            self._summary.remote_bytes += nbytes
        if self.tracing:
            self._trace.append(AccessRecord(kind, nbytes, local))

    def _record_batch(
        self,
        local: np.ndarray,
        counts: np.ndarray,
        accesses: Sequence[Tuple[AccessKind, Union[int, np.ndarray]]],
    ) -> None:
        """Charge one batched gather to the summary in one pass.

        Entry ``i`` stands for ``counts[i]`` reads of one node, each
        local or remote per ``local[i]``. Every read issues one access
        per ``(kind, nbytes)`` pair of ``accesses``; ``nbytes`` is one
        size for every entry (index and offset lookups, attribute rows)
        or a per-entry array, and an access of 0 bytes is not issued
        (an isolated node's ID block). Totals match issuing each access
        through :meth:`_record`; only the trace *ordering* may differ
        from the per-node walk.
        """
        remote_counts = np.where(local, 0, counts)
        total = int(counts.sum())
        if total == 0:
            return
        remote_total = int(remote_counts.sum())
        summary = self._summary
        for kind, nbytes in accesses:
            if np.ndim(nbytes) == 0:
                issued = total if nbytes else 0
                remote_issued = remote_total if nbytes else 0
                moved, remote_moved = nbytes * total, nbytes * remote_total
            else:
                nonzero = nbytes > 0
                issued, remote_issued = int(counts @ nonzero), int(remote_counts @ nonzero)
                moved, remote_moved = counts @ nbytes, remote_counts @ nbytes
            if kind is AccessKind.STRUCTURE:
                summary.structure_count += issued
                summary.structure_bytes += int(moved)
            else:
                summary.attribute_count += issued
                summary.attribute_bytes += int(moved)
            summary.remote_count += remote_issued
            summary.remote_bytes += int(remote_moved)
        if self.tracing:
            for kind, nbytes in accesses:
                for b, loc, c in zip(np.broadcast_to(nbytes, local.shape), local, counts):
                    if b and c:
                        record = AccessRecord(kind, int(b), bool(loc))
                        self._trace.extend([record] * int(c))

    def record_gather(self, nodes: np.ndarray, entry_bytes: int) -> None:
        """Account the contiguity of one batched gather (opt-in).

        ``nodes`` is the batch's distinct node set; ``entry_bytes`` is
        the per-node footprint in the array being gathered. Runs are
        maximal stretches of consecutive IDs; the span is the byte
        distance covering the whole batch. Both shrink as co-accessed
        nodes sit closer together in the arrays. Public for the sharded
        engine, which records each shard's adjacency gathers here
        because its shard workers expand several shards in one gather.
        """
        if not self.track_locality or nodes.size == 0:
            return
        ordered = np.sort(np.asarray(nodes, dtype=np.int64))
        runs = 1 + int(np.count_nonzero(np.diff(ordered) != 1))
        self._summary.gather_nodes += int(ordered.size)
        self._summary.gather_runs += runs
        self._summary.gather_span_bytes += int(
            (ordered[-1] - ordered[0] + 1) * entry_bytes
        )

    def _locality(self, nodes: np.ndarray, from_partition: Optional[int]) -> np.ndarray:
        if from_partition is None:
            return np.ones(nodes.shape, dtype=bool)
        return self.partitioner.owned_mask(nodes, from_partition)

    def _remote_read(self, owner: int, nbytes: int) -> None:
        """Execute one remote read on the fault-tolerant path (if any).

        May raise :class:`~repro.errors.ReplicaUnavailableError`; the
        caller has not yet recorded the access when that happens.
        """
        if self.reliability is not None:
            self.reliability.read(owner, nbytes)

    def _observe_epoch(self) -> None:
        """Hook run by the batch reads and :meth:`get_attributes` (the
        dynamic store's torn-read witness). A static graph has one
        epoch, so there is nothing to witness."""

    def _count_delta(self, delta_degrees: np.ndarray, counts: np.ndarray) -> None:
        """Hook run by an adjacency gather that read append-log edges,
        with each node's charged occurrences; a static graph has none."""

    @property
    def fault_stats(self):
        """Retry/timeout/hedge counters, or ``None`` without a reliable path."""
        if self.reliability is None:
            return None
        return self.reliability.stats

    # --------------------------------------------------------------- access
    def get_neighbors(
        self, node: int, from_partition: Optional[int] = None
    ) -> np.ndarray:
        """Adjacency list of ``node``.

        Issues one index lookup, one offset-pair read, and one ID-block
        read, each attributed local or remote relative to
        ``from_partition`` (``None`` means measure everything as local,
        e.g. a single-server deployment). Remote reads additionally run
        through the reliable path when one is configured.
        """
        local = bool(
            self._locality(np.asarray([node], dtype=np.int64), from_partition)[0]
        )
        neighbors = self.graph.neighbors(node)
        if not local and self.reliability is not None:
            owner = int(
                self.partitioner.partition_of(np.asarray([node], dtype=np.int64))[0]
            )
            self._remote_read(owner, self.index_entry_bytes)
            self._remote_read(owner, self.offset_entry_bytes)
            if neighbors.size:
                self._remote_read(owner, int(neighbors.size) * self.id_bytes)
        self._record(AccessKind.STRUCTURE, self.index_entry_bytes, local)
        self._record(AccessKind.STRUCTURE, self.offset_entry_bytes, local)
        if neighbors.size:
            self._record(AccessKind.STRUCTURE, int(neighbors.size) * self.id_bytes, local)
        return neighbors

    def get_neighbors_batch(
        self,
        nodes: Sequence[int],
        from_partition: Optional[int] = None,
        counts: Optional[np.ndarray] = None,
        degraded_ok: bool = False,
    ) -> NeighborBatch:
        """Vectorized adjacency gather for a batch of nodes.

        Per node the accounting is identical to ``counts[i]`` calls of
        :meth:`get_neighbors` (``counts`` defaults to one each): an
        index lookup, an offset-pair read, and — for non-isolated nodes
        — an ID-block read, plus one more for a non-empty append-log
        block on a dynamic graph. Failure handling is
        :meth:`_read_batch`'s; a node whose every occurrence failed
        comes back with an empty slice and ``served[i] == False``.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        values, offsets, base, delta = self.graph.gather(nodes)
        accesses = [
            (AccessKind.STRUCTURE, self.index_entry_bytes),
            (AccessKind.STRUCTURE, self.offset_entry_bytes),
            (AccessKind.STRUCTURE, base * self.id_bytes),
        ]
        has_delta = bool(delta.any())
        if has_delta:
            accesses.append((AccessKind.STRUCTURE, delta * self.id_bytes))
        charged, served, fallbacks = self._read_batch(
            nodes, from_partition, counts, degraded_ok,
            self.offset_entry_bytes, accesses,
        )
        if has_delta:
            self._count_delta(delta, charged)
        if not served.all():
            degrees = base + delta
            values = values[np.repeat(served, degrees)]
            offsets = np.zeros_like(offsets)
            np.cumsum(np.where(served, degrees, 0), out=offsets[1:])
        return NeighborBatch(nodes, values, offsets, served, fallbacks)

    def get_attributes_batch(
        self,
        nodes: Sequence[int],
        from_partition: Optional[int] = None,
        counts: Optional[np.ndarray] = None,
        degraded_ok: bool = False,
    ) -> AttributeBatch:
        """Vectorized attribute gather for a batch of nodes.

        Per node the accounting is identical to ``counts[i]`` calls of
        :meth:`get_attributes` on a single node: one index lookup plus
        one attribute-row transfer per successful occurrence. Failure
        handling is :meth:`_read_batch`'s; a node whose every
        occurrence failed comes back as a zero row with
        ``served[i] == False``.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        rows = self.graph.attributes(nodes)
        row_bytes = self.graph.attr_len * 4
        accesses = [
            (AccessKind.STRUCTURE, self.index_entry_bytes),
            (AccessKind.ATTRIBUTE, row_bytes),
        ]
        _charged, served, fallbacks = self._read_batch(
            nodes, from_partition, counts, degraded_ok, row_bytes, accesses
        )
        rows[~served] = 0.0
        return AttributeBatch(nodes, rows, served, fallbacks)

    def _read_batch(
        self,
        nodes: np.ndarray,
        from_partition: Optional[int],
        counts: Optional[np.ndarray],
        degraded_ok: bool,
        entry_bytes: int,
        accesses: List[Tuple[AccessKind, Union[int, np.ndarray]]],
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """The one accounted batch read, after its caller fetched the
        data (so a bad node ID or a missing attribute matrix has raised
        before anything is charged).

        Each of node ``i``'s ``counts[i]`` occurrences issues
        ``accesses`` (see :meth:`_record_batch`). On the reliable path
        every remote occurrence runs them in order through
        :meth:`_remote_read`, and a failed occurrence is not charged:
        with ``degraded_ok`` it is tallied as a fallback, and a node
        with no successful occurrence is not ``served``; without it the
        occurrences that completed before it are charged and the error
        re-raised, mirroring the per-node walk stopping at the failing
        node. Returns ``(charged, served, fallbacks)``, ``charged``
        being the occurrences charged per node.
        """
        if counts is None:
            counts = np.ones(nodes.shape, dtype=np.int64)
        else:
            counts = np.asarray(counts)
            if counts.shape != nodes.shape:
                raise ConfigurationError(
                    f"counts shape {counts.shape} != nodes shape {nodes.shape}"
                )
            if counts.dtype.kind not in "iu" or (counts.size and counts.min() < 0):
                raise ConfigurationError(
                    "counts must be non-negative integers, got dtype "
                    f"{counts.dtype}, min {counts.min(initial=0)}"
                )
            counts = counts.astype(np.int64, copy=False)
        self._observe_epoch()
        self.record_gather(nodes, entry_bytes)
        local = self._locality(nodes, from_partition)
        served = np.ones(nodes.shape, dtype=bool)
        fallbacks = 0
        if self.reliability is not None and not local.all():
            counts = counts.copy()
            owners = self.partitioner.partition_of(nodes)
            sizes = np.stack(
                [np.broadcast_to(nbytes, nodes.shape) for _kind, nbytes in accesses],
                axis=1,
            )
            for i in np.flatnonzero(~local):
                reads = [int(nbytes) for nbytes in sizes[i] if nbytes]
                successes = 0
                for _ in range(int(counts[i])):
                    try:
                        for nbytes in reads:
                            self._remote_read(int(owners[i]), nbytes)
                    except ReplicaUnavailableError:
                        if not degraded_ok:
                            counts[i] = successes
                            counts[i + 1 :] = 0
                            self._record_batch(local, counts, accesses)
                            raise
                        fallbacks += 1
                    else:
                        successes += 1
                counts[i] = successes
                served[i] = successes > 0
        self._record_batch(local, counts, accesses)
        return counts, served, fallbacks

    def get_attributes(
        self,
        nodes: Sequence[int],
        from_partition: Optional[int] = None,
    ) -> np.ndarray:
        """Attribute rows for ``nodes``.

        Each node costs one index lookup (structure) plus one attribute
        row transfer; :meth:`get_attributes_batch` is the deduplicated
        form with the same summary totals.
        """
        self._observe_epoch()
        nodes = np.asarray(nodes, dtype=np.int64)
        rows = self.graph.attributes(nodes)
        locality = self._locality(nodes, from_partition)
        row_bytes = self.graph.attr_len * 4
        if self.reliability is not None and not locality.all():
            # Interleave reliable reads with records so a failure
            # mid-batch leaves earlier rows consistently accounted and
            # raises before the failing row is recorded.
            owners = self.partitioner.partition_of(nodes)
            for owner, local in zip(owners, locality):
                if not local:
                    self._remote_read(int(owner), self.index_entry_bytes)
                    self._remote_read(int(owner), row_bytes)
                self._record(AccessKind.STRUCTURE, self.index_entry_bytes, bool(local))
                self._record(AccessKind.ATTRIBUTE, row_bytes, bool(local))
            return rows
        for local in locality:
            self._record(AccessKind.STRUCTURE, self.index_entry_bytes, bool(local))
            self._record(AccessKind.ATTRIBUTE, row_bytes, bool(local))
        return rows

    def partition_sizes(self) -> np.ndarray:
        """Number of nodes owned by each partition."""
        owners = self.partitioner.partition_of(
            np.arange(self.graph.num_nodes, dtype=np.int64)
        )
        counts = np.bincount(owners, minlength=self.num_partitions)
        if counts.size > self.num_partitions:
            raise PartitionError("partitioner produced out-of-range partition IDs")
        return counts
