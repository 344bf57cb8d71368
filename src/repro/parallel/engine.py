"""Sharded parallel sampling engine (coordinator side).

:class:`ParallelSampler` is a :class:`~repro.framework.sampler.
MultiHopSampler` — inherited root mapping, attribute gather, negative
sampling, cache and ``store`` accounting — that replaces one step, hop
expansion, by fanning every micro-batch out across shards: the
partitioner splits the roots by owning partition and each shard slice
becomes a :class:`~repro.parallel.worker.ShardTask` with its own RNG
stream. All tasks one process holds run as one vectorized expansion:
in-process at ``workers=0``, else on persistent worker processes that
each get one message per micro-batch (the shards placed on it by
``shard % workers``) over their own pipe and send one reply. Hop
layers come back through zero-copy arenas; the coordinator merges
them, absorbs each reply's access delta, records each shard's gather
contiguity, and finishes the result the way the base class does.

This is the software analogue of the paper's AxE outstanding-request
pipeline: ``submit``/``collect`` decouple issuing a micro-batch from
consuming it, so shard workers sample batch *k+1* while the
coordinator runs attribute gather + GNN forward for batch *k* (see
:mod:`repro.parallel.pipeline`).

Determinism: shard membership is owner-based and the per-task RNG
stream is a pure function of ``(seed, shard, seq)``, so results and
merged :class:`~repro.memstore.store.AccessSummary` totals are
bit-identical at every worker count — ``workers=0`` runs the exact
same shard tasks inline.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field
from multiprocessing.connection import Connection, wait
from typing import Dict, Iterable, List, Optional, Sequence, Set

import numpy as np

from repro.errors import ConfigurationError, ParallelExecutionError
from repro.framework.cache import HotNodeCache
from repro.framework.requests import SampleRequest, SampleResult
from repro.framework.sampler import MultiHopSampler
from repro.framework.selectors import get_selector
from repro.memstore.store import PartitionedStore
from repro.parallel.shm import GraphPlane, SharedBlock
from repro.parallel.worker import (
    ShardDone,
    ShardRuntime,
    ShardTask,
    WorkerConfig,
    read_layers,
    region_bytes,
    worker_main,
)

#: How long one wait on the worker pipes blocks before re-checking that
#: every worker is still alive. A worker that dies closes its pipe, so
#: the wait returns at once with EOF; the poll guards a live but stuck
#: pool.
DONE_POLL_S = 1.0
#: Consecutive empty polls tolerated before declaring the pool wedged.
MAX_IDLE_POLLS = 120


@dataclass
class _Pending:
    """Coordinator-side state of one in-flight micro-batch."""

    request: SampleRequest
    slot: int
    members: Dict[int, np.ndarray]
    remaining: Set[int]
    #: Every layer in store IDs: the roots, then one array per hop that
    #: the shards' rows are merged into.
    layers: List[np.ndarray] = field(default_factory=list)
    #: First shard failure reported for this batch; raised by the
    #: batch's own collect/discard once every shard has reported.
    error: Optional[str] = None

    def fail(self, shards: Iterable[int], error: str) -> None:
        """Count ``shards`` as complete but failed with ``error``."""
        self.remaining.difference_update(shards)
        if self.error is None:
            self.error = error


class ParallelSampler(MultiHopSampler):
    """A :class:`MultiHopSampler` whose hop expansion runs on shard workers:
    ``submit`` splits the inherited ``_internal_roots`` into shard tasks
    and dispatches them (one message per worker), ``collect`` merges the
    hop layers and ends in the inherited ``_finish_result``; everything
    else is the base class's.

    Parameters
    ----------
    store:
        The coordinator's :class:`PartitionedStore`. All accounting —
        shard structure deltas and coordinator attribute gathers —
        lands in this store's summary. Shard workers run in store IDs
        over ``store.graph``, so a locality-layout store composes. Must
        not carry a ``reliability`` path (shard workers run the
        zero-fault fast path only).
    workers:
        Worker process count. ``0`` executes the identical shard tasks
        inline (no processes, no shared memory) — the determinism
        reference for any ``workers >= 1`` run. Shard ``s`` runs on
        worker ``s % workers``.
    seed:
        Root entropy for the per-(shard, batch) RNG streams.
    sampling_method:
        Selector name (``uniform``/``streaming``/``weighted``).
    worker_partition:
        Locality attribution, as on :class:`MultiHopSampler`.
    slots:
        Result-arena slots, i.e. micro-batches that may be in flight
        at once. 2 = double buffering.
    plane_backend:
        Shard-plane transport: ``"shm"``, ``"mmap"``, or ``"auto"``.
    cache:
        Optional hot-node cache in front of the *coordinator's* reads
        (attribute gather, negative sampling). Shard-side structure
        reads stay uncached, so the parity bar with a cache is
        worker-count invariance, not equality with a cached oracle walk.
    """

    def __init__(
        self,
        store: PartitionedStore,
        workers: int = 0,
        seed: int = 0,
        sampling_method: str = "uniform",
        worker_partition: Optional[int] = None,
        slots: int = 2,
        plane_backend: str = "auto",
        cache: Optional[HotNodeCache] = None,
    ) -> None:
        if workers < 0:
            raise ConfigurationError(f"workers must be >= 0, got {workers}")
        if slots < 1:
            raise ConfigurationError(f"slots must be >= 1, got {slots}")
        if store.reliability is not None:
            raise ConfigurationError(
                "parallel execution does not support a reliability path; "
                "shard workers run the zero-fault fast path only"
            )
        # The base's RNG serves coordinator-side negative sampling only,
        # on a dedicated stream that never perturbs the shard streams.
        super().__init__(
            store,
            seed=derive_negative_seed(seed),
            cache=cache,
            worker_partition=worker_partition,
            selector=get_selector(sampling_method),
        )
        self.workers = workers
        self.seed = seed
        self.sampling_method = sampling_method
        self.slots = slots
        self.plane_backend = plane_backend
        self._seq = 0
        self._pending: Dict[int, _Pending] = {}
        # In-process shard runtime (workers=0) — built lazily so the
        # zero-worker engine costs nothing beyond the store it wraps.
        self._inline: Optional[ShardRuntime] = None
        # Process-pool state (workers >= 1).
        self._plane: Optional[GraphPlane] = None
        self._arenas: List[SharedBlock] = []
        self._procs: List[multiprocessing.process.BaseProcess] = []
        #: Coordinator end of each worker's duplex pipe, by worker index.
        self._conns: List[Connection] = []
        self._shard_region_bytes = 0
        self._closed = False

    # ------------------------------------------------------------ interface
    @property
    def num_shards(self) -> int:
        return self.store.num_partitions

    def __enter__(self) -> "ParallelSampler":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------- lifecycle
    def _mp_context(self):
        methods = multiprocessing.get_all_start_methods()
        return multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )

    def _ensure_pool(self, region_bytes: int) -> None:
        """(Re)start the worker pool with arenas of ``region_bytes``/shard.

        The pool persists across micro-batches; it only restarts when a
        request needs larger arena regions than were provisioned.
        """
        if self.workers == 0:
            if self._inline is None:
                self._inline = ShardRuntime.from_store(
                    self.store, self.sampling_method
                )
            return
        if self._procs and region_bytes <= self._shard_region_bytes:
            return
        if self._pending:
            raise ParallelExecutionError(
                "cannot resize arenas with micro-batches in flight"
            )
        self._stop_pool()
        if self._plane is None:
            self._plane = GraphPlane(self.store.graph, backend=self.plane_backend)
        self._shard_region_bytes = region_bytes
        arena_bytes = max(region_bytes * self.num_shards, 64)
        self._arenas = [
            SharedBlock(arena_bytes, backend=self.plane_backend)
            for _ in range(self.slots)
        ]
        ctx = self._mp_context()
        config = WorkerConfig(
            graph=self._plane.handle,
            arenas=tuple(a.handle for a in self._arenas),
            shard_region_bytes=region_bytes,
            partitioner=self.store.partitioner,
            seed=self.seed,
            sampling_method=self.sampling_method,
            worker_partition=self.worker_partition,
        )
        for i in range(self.workers):
            conn, child = ctx.Pipe()
            proc = ctx.Process(
                target=worker_main,
                args=(config, child),
                daemon=True,
                name=f"repro-shard-worker-{i}",
            )
            proc.start()
            # Closed before the next fork, so the worker holds the only
            # child end: its death reads as EOF on ``conn``.
            child.close()
            self._procs.append(proc)
            self._conns.append(conn)

    def _stop_pool(self) -> None:
        for conn in self._conns:
            try:
                conn.send(None)
            except OSError:
                pass  # that worker is already gone; join reaps it
        for proc in self._procs:
            proc.join(timeout=10)
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)
        for conn in self._conns:
            conn.close()
        self._procs = []
        self._conns = []
        for arena in self._arenas:
            arena.close()
            arena.unlink()
        self._arenas = []

    def close(self) -> None:
        """Shut down workers and release the shard plane + arenas."""
        if self._closed:
            return
        self._closed = True
        self._pending.clear()
        self._stop_pool()
        if self._plane is not None:
            self._plane.close()
            self._plane.unlink()
            self._plane = None

    def reserve(self, max_roots: int, fanouts: Sequence[int]) -> None:
        """Pre-provision worker arenas for requests up to ``max_roots``.

        The pool only restarts when a request outgrows its arenas, and
        it cannot restart while micro-batches are in flight — so a
        pipelined caller whose request sizes vary (e.g. cache-deduped
        micro-batches) must size the arenas for its largest request
        before streaming begins.
        """
        if self._closed:
            raise ParallelExecutionError("engine is closed")
        if max_roots < 1:
            raise ConfigurationError(
                f"max_roots must be >= 1, got {max_roots}"
            )
        self._ensure_pool(region_bytes(max_roots, tuple(fanouts)))

    # ------------------------------------------------------------ submission
    def submit(self, request: SampleRequest) -> int:
        """Dispatch a micro-batch to the shard workers; returns its seq.

        At most ``slots`` micro-batches may be un-merged at once; a
        submit that would reuse a busy arena slot blocks until that
        slot's shards finish. A worker found gone fails its shards of
        this batch, raised by the batch's own collect/discard.
        """
        if self._closed:
            raise ParallelExecutionError("engine is closed")
        roots = self._internal_roots(request)
        region = region_bytes(roots.size, request.fanouts)
        self._ensure_pool(region)
        seq = self._seq
        self._seq += 1
        slot = seq % self.slots
        # Wait out the previous occupant of this arena slot (its
        # regions are free once every shard has been merged).
        while any(
            p.slot == slot and p.remaining for p in self._pending.values()
        ):
            self._pump()
        owners = self.store.partitioner.partition_of(roots)
        members = {
            shard: np.flatnonzero(owners == shard)
            for shard in range(self.num_shards)
        }
        members = {s: idx for s, idx in members.items() if idx.size}
        width = 1
        layers = [roots]
        for fanout in request.fanouts:
            width *= fanout
            layers.append(np.empty((roots.size, width), dtype=np.int64))
        entry = _Pending(
            request=request,
            slot=slot,
            members=members,
            remaining=set(members),
            layers=layers,
        )
        self._pending[seq] = entry
        tasks = [
            ShardTask(
                seq=seq,
                shard=shard,
                slot=slot,
                roots=roots[members[shard]],
                fanouts=tuple(request.fanouts),
            )
            for shard in sorted(members)
        ]
        if self.workers == 0:
            self._run_inline(tasks, entry)
            return seq
        for worker, conn in enumerate(self._conns):
            mine = tuple(t for t in tasks if t.shard % self.workers == worker)
            if not mine:
                continue
            try:
                conn.send(mine)
            except OSError as exc:
                entry.fail(
                    (t.shard for t in mine),
                    f"shard worker {self._procs[worker].name} is gone: {exc!r}",
                )
        return seq

    def _run_inline(self, tasks: List[ShardTask], entry: _Pending) -> None:
        try:
            layers, summary = self._inline.run_shards(
                tasks, self.seed, self.worker_partition
            )
        except Exception as exc:
            # Nothing else of this batch is in flight, so dropping the
            # entry frees its slot.
            del self._pending[tasks[0].seq]
            raise ParallelExecutionError(
                f"shards {[t.shard for t in tasks]} of micro-batch "
                f"{tasks[0].seq} failed: {exc}"
            ) from exc
        for task, task_layers in zip(tasks, layers):
            self._merge(entry, task.shard, task_layers)
        self.store.absorb_summary(summary)

    def _merge(self, entry: _Pending, shard: int, layers: List[np.ndarray]) -> None:
        """Scatter one shard's hop layers into its rows of the batch and
        record the contiguity of the adjacency gather of each of its
        expanded layers (the shadow stores do not track it)."""
        rows = entry.members[shard]
        for hop, layer in enumerate(layers, start=1):
            entry.layers[hop][rows] = layer
        if self.store.track_locality:
            for layer in entry.layers[:-1]:
                self.store.record_gather(
                    np.unique(layer[rows]), self.store.offset_entry_bytes
                )
        entry.remaining.discard(shard)

    # ------------------------------------------------------------ collection
    def _check_alive(self) -> None:
        dead = [p.name for p in self._procs if not p.is_alive()]
        if dead:
            raise ParallelExecutionError(
                f"shard worker(s) died unexpectedly: {', '.join(dead)}"
            )

    def _pump(self) -> None:
        """Block for worker replies and merge each into its batch.

        A failure reply is recorded on the batch and counts as its
        shards' completion; :meth:`_finish` raises it once the batch's
        other shards have reported, so no completion is left behind. A
        worker that died (EOF or a reset on its pipe) raises here.
        """
        idle = 0
        while True:
            ready = wait(self._conns, timeout=DONE_POLL_S)
            if ready:
                break
            self._check_alive()
            idle += 1
            if idle >= MAX_IDLE_POLLS:
                raise ParallelExecutionError("timed out waiting for shard workers")
        for conn in ready:
            try:
                msg: ShardDone = conn.recv()
            except (EOFError, OSError) as exc:
                name = self._procs[self._conns.index(conn)].name
                raise ParallelExecutionError(
                    f"shard worker {name} died unexpectedly"
                ) from exc
            self._receive(msg)

    def _receive(self, msg: ShardDone) -> None:
        entry = self._pending.get(msg.seq)
        if entry is None or not entry.remaining.issuperset(msg.shards):
            raise ParallelExecutionError(
                f"unexpected completion for micro-batch {msg.seq}, "
                f"shards {list(msg.shards)}"
            )
        if msg.error is not None:
            entry.fail(
                msg.shards,
                f"shards {list(msg.shards)} of micro-batch {msg.seq} "
                f"failed:\n{msg.error}",
            )
            return
        buf = self._arenas[entry.slot].buf
        for shard in msg.shards:
            views = read_layers(
                buf,
                shard * self._shard_region_bytes,
                entry.members[shard].size,
                tuple(entry.request.fanouts),
            )
            self._merge(entry, shard, views)
        self.store.absorb_summary(msg.summary)

    def _finish(self, seq: int) -> _Pending:
        """Wait out micro-batch ``seq``'s shards and drop its entry.

        The entry goes (and its arena slot frees) however the wait
        ends; a shard failure is raised only after that.
        """
        entry = self._pending.get(seq)
        if entry is None:
            raise ParallelExecutionError(f"unknown micro-batch {seq}")
        try:
            while entry.remaining:
                self._pump()
        finally:
            del self._pending[seq]
        if entry.error is not None:
            raise ParallelExecutionError(entry.error)
        return entry

    def collect(self, seq: int) -> SampleResult:
        """Merge micro-batch ``seq``: hop layers + attribute gather."""
        entry = self._finish(seq)
        # One pinned snapshot for the whole gather: on a mutable store
        # the per-layer batches must not straddle epochs. The shard
        # expansions deduplicated their layers in shard order, not in
        # this batch's row order, so the merged layers carry no dedup
        # triples into the base sampler's gather.
        with self.store.read_view():
            return self._finish_result(
                entry.request, entry.layers, [None] * len(entry.layers)
            )

    def discard(self, seq: int) -> None:
        """Abandon in-flight micro-batch ``seq`` without consuming it.

        Waits out its remaining shard completions (their arena regions
        are only reusable once every shard has reported), then drops the
        pending entry — freeing the arena slot without the attribute
        gather. Used by :meth:`PipelinedExecutor.drain` to flush the
        pipeline after a failed compute step. Shard accounting that
        already merged stays in the store summary: the sampling work
        really happened.
        """
        self._finish(seq)

    # -------------------------------------------------------------- sampling
    def sample(self, request: SampleRequest) -> SampleResult:
        """Execute one request across the shard workers (submit+collect)."""
        return self.collect(self.submit(request))


def derive_negative_seed(seed: int) -> np.random.SeedSequence:
    """SeedSequence stream reserved for coordinator-side negative sampling."""
    return np.random.SeedSequence(entropy=seed, spawn_key=(2**31,))
