"""Sharded parallel sampling engine (coordinator side).

:class:`ParallelSampler` is a :class:`~repro.framework.sampler.
MultiHopSampler` — inherited root mapping, attribute gather, negative
sampling, cache and ``store`` accounting — that replaces one step, hop
expansion, by fanning every micro-batch out across shards: the
partitioner splits the roots by owning partition, each shard slice
becomes a :class:`~repro.parallel.worker.ShardTask` executed by a
persistent worker process (or in-process at ``workers=0``), hop layers
come back through zero-copy arenas, and the coordinator merges them,
absorbs each shard's access delta, and finishes the result the way the
base class does.

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
import queue as queue_mod
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

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

#: How long one poll of the done queue blocks before re-checking that
#: every worker is still alive (guards against hanging on a dead pool).
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


class ParallelSampler(MultiHopSampler):
    """A :class:`MultiHopSampler` whose hop expansion runs on shard workers:
    ``submit`` dispatches the inherited ``_internal_roots`` shard by
    shard, ``collect`` merges the hop layers and ends in the inherited
    ``_finish_result``; everything else is the base class's.

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
        reference for any ``workers >= 1`` run.
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
        self._tasks = None
        self._done = None
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
        self._tasks = ctx.Queue()
        self._done = ctx.Queue()
        config = WorkerConfig(
            graph=self._plane.handle,
            arenas=tuple(a.handle for a in self._arenas),
            shard_region_bytes=region_bytes,
            partitioner=self.store.partitioner,
            track_locality=self.store.track_locality,
            seed=self.seed,
            sampling_method=self.sampling_method,
            worker_partition=self.worker_partition,
        )
        self._procs = [
            ctx.Process(
                target=worker_main,
                args=(config, self._tasks, self._done),
                daemon=True,
                name=f"repro-shard-worker-{i}",
            )
            for i in range(self.workers)
        ]
        for proc in self._procs:
            proc.start()

    def _stop_pool(self) -> None:
        if self._procs:
            for _ in self._procs:
                self._tasks.put(None)
            for proc in self._procs:
                proc.join(timeout=10)
            for proc in self._procs:
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=5)
        self._procs = []
        self._tasks = None
        self._done = None
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
        slot's shards finish.
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
        for shard in sorted(members):
            task = ShardTask(
                seq=seq,
                shard=shard,
                slot=slot,
                roots=roots[members[shard]],
                fanouts=tuple(request.fanouts),
            )
            if self.workers == 0:
                self._run_inline(task, entry)
            else:
                self._tasks.put(task)
        return seq

    def _run_inline(self, task: ShardTask, entry: _Pending) -> None:
        try:
            layers, summary = self._inline.run_shard(
                task, self.seed, self.worker_partition
            )
        except Exception as exc:
            # Nothing else of this batch is in flight (inline shards run
            # one by one), so dropping the entry frees its slot.
            del self._pending[task.seq]
            raise ParallelExecutionError(
                f"shard {task.shard} of micro-batch {task.seq} failed: {exc}"
            ) from exc
        rows = entry.members[task.shard]
        for hop, layer in enumerate(layers, start=1):
            entry.layers[hop][rows] = layer
        self.store.absorb_summary(summary)
        entry.remaining.discard(task.shard)

    # ------------------------------------------------------------ collection
    def _check_alive(self) -> None:
        dead = [p.name for p in self._procs if not p.is_alive()]
        if dead:
            raise ParallelExecutionError(
                f"shard worker(s) died unexpectedly: {', '.join(dead)}"
            )

    def _pump(self) -> None:
        """Block for one ShardDone message and merge it into its batch.

        A shard failure is recorded on the batch and counts as that
        shard's completion; :meth:`_finish` raises it once the batch's
        other shards have reported, so no completion is left behind.
        """
        idle = 0
        while True:
            try:
                msg: ShardDone = self._done.get(timeout=DONE_POLL_S)
                break
            except queue_mod.Empty:
                self._check_alive()
                idle += 1
                if idle >= MAX_IDLE_POLLS:
                    raise ParallelExecutionError(
                        "timed out waiting for shard workers"
                    )
        entry = self._pending.get(msg.seq)
        if entry is None or msg.shard not in entry.remaining:
            raise ParallelExecutionError(
                f"unexpected completion for micro-batch {msg.seq}, "
                f"shard {msg.shard}"
            )
        entry.remaining.discard(msg.shard)
        if msg.error is not None:
            if entry.error is None:
                entry.error = (
                    f"shard {msg.shard} of micro-batch {msg.seq} "
                    f"failed:\n{msg.error}"
                )
            return
        rows = entry.members[msg.shard]
        views = read_layers(
            self._arenas[entry.slot].buf,
            msg.shard * self._shard_region_bytes,
            msg.count,
            tuple(entry.request.fanouts),
        )
        for hop, view in enumerate(views, start=1):
            entry.layers[hop][rows] = view
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
        # the per-layer batches must not straddle epochs. The shards
        # deduplicated only their own slices, so the merged layers
        # carry no dedup triples into the base sampler's gather.
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
