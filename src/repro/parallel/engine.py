"""Sharded parallel sampling engine (coordinator side).

:class:`ParallelSampler` is a :class:`~repro.framework.sampler.
MultiHopSampler` — inherited root mapping, attribute gather, negative
sampling and ``store`` accounting — that replaces one step, hop
expansion, by fanning every micro-batch out across shards: the
partitioner splits the roots by owning partition and each shard slice
becomes a :class:`~repro.parallel.worker.ShardTask` with its own RNG
stream. All tasks one process holds run as one vectorized expansion.
At ``workers=0`` that process is the coordinator: ``submit`` queues the
tasks, and the first collect of a queued micro-batch runs every queued
task — a whole window of micro-batches — in one expansion. Otherwise persistent worker processes each get one message
per micro-batch (the shards placed on it by ``shard % workers``) over
their own pipe and send one reply carrying the hop layers. The
coordinator merges them, absorbs each expansion's access delta,
records each shard's gather contiguity, and finishes the result the
way the base class does.

Workers inherit the store's graph at start (copy-on-write under
``fork``), so nothing but roots and layers crosses a pipe. Each worker
has at most one unanswered message: ``submit`` first receives a busy
worker's earlier reply. Otherwise a large task and a large reply could
each fill its direction of the pipe and block both sides.

This is the software analogue of the paper's AxE outstanding-request
pipeline: ``submit``/``collect`` decouple issuing a micro-batch from
consuming it, so shard workers sample batch *k+1* while the
coordinator runs attribute gather + GNN forward for batch *k* (see
:mod:`repro.parallel.pipeline`).

Determinism: shard membership is owner-based and the per-task RNG
stream is a pure function of ``(seed, shard, seq)``, so results and
merged :class:`~repro.memstore.store.AccessSummary` totals are
bit-identical at every worker count — ``workers=0`` runs the exact
same shard tasks inline, however many micro-batches share a window.
"""

from __future__ import annotations

import multiprocessing
import traceback
from dataclasses import dataclass, field
from multiprocessing.connection import Connection, wait
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import ConfigurationError, ParallelExecutionError
from repro.framework.requests import SampleRequest, SampleResult
from repro.framework.sampler import MultiHopSampler
from repro.framework.selectors import get_selector
from repro.memstore.store import PartitionedStore
from repro.parallel.worker import (
    ShardDone,
    ShardRuntime,
    ShardTask,
    WorkerConfig,
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
    and dispatches them (one message per worker; inline, it queues
    them), ``collect`` merges the hop layers and ends in the inherited
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
        inline (no processes) — the determinism reference for any
        ``workers >= 1`` run — deferred to the first collect of a
        queued micro-batch, where sampling and its failures then
        happen. Shard ``s`` runs on worker ``s % workers``.
    seed:
        Root entropy for the per-(shard, batch) RNG streams.
    sampling_method:
        Selector name (``uniform``/``streaming``/``weighted``).
    worker_partition:
        Locality attribution, as on :class:`MultiHopSampler`.
    """

    def __init__(
        self,
        store: PartitionedStore,
        workers: int = 0,
        seed: int = 0,
        sampling_method: str = "uniform",
        worker_partition: Optional[int] = None,
    ) -> None:
        if workers < 0:
            raise ConfigurationError(f"workers must be >= 0, got {workers}")
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
            worker_partition=worker_partition,
            selector=get_selector(sampling_method),
        )
        self.workers = workers
        self.seed = seed
        self.sampling_method = sampling_method
        self._seq = 0
        self._pending: Dict[int, _Pending] = {}
        # In-process shard runtime (workers=0) — built lazily so the
        # zero-worker engine costs nothing beyond the store it wraps.
        self._inline: Optional[ShardRuntime] = None
        #: Inline tasks submitted but not yet run, in submit order: the
        #: next collect of any of their batches runs them all at once.
        self._queued: List[ShardTask] = []
        # Process-pool state (workers >= 1).
        self._procs: List[multiprocessing.process.BaseProcess] = []
        #: Coordinator end of each worker's duplex pipe, by worker index.
        self._conns: List[Connection] = []
        #: Seq of each worker's unanswered message, or None when idle.
        self._awaiting: List[Optional[int]] = []
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

    def _ensure_pool(self) -> None:
        """Start the shard runtime: inline, or the persistent worker pool."""
        if self._inline is not None or self._procs:
            return
        config = WorkerConfig(
            graph=self.store.graph,
            partitioner=self.store.partitioner,
            seed=self.seed,
            sampling_method=self.sampling_method,
            worker_partition=self.worker_partition,
        )
        if self.workers == 0:
            self._inline = ShardRuntime.from_config(config)
            return
        ctx = self._mp_context()
        for i in range(self.workers):
            conn, child = ctx.Pipe()
            # Under fork the worker inherits ``config`` (and the graph
            # arrays) copy-on-write; under spawn it is pickled once.
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
            self._awaiting.append(None)

    def close(self) -> None:
        """Shut down the workers.

        An idle worker is told to exit. A busy one may be blocked
        sending a reply nobody will read, so it is terminated instead.
        """
        if self._closed:
            return
        self._closed = True
        self._pending.clear()
        self._queued = []
        for proc, conn, seq in zip(self._procs, self._conns, self._awaiting):
            if seq is not None:
                proc.terminate()
                continue
            try:
                conn.send(None)
            except OSError:
                pass  # that worker is already gone; join reaps it
        for proc in self._procs:
            proc.join(timeout=10)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)
        for conn in self._conns:
            conn.close()
        self._procs = []
        self._conns = []
        self._awaiting = []

    def reserve(self, max_roots: int, fanouts: Sequence[int]) -> None:
        """Validate a request shape and start the pool ahead of the first
        submit, for callers that time pool start-up separately.
        Retiring the worker processes (ROADMAP item 1) deletes it."""
        if self._closed:
            raise ParallelExecutionError("engine is closed")
        if max_roots < 1:
            raise ConfigurationError(
                f"max_roots must be >= 1, got {max_roots}"
            )
        if not fanouts or any(f <= 0 for f in fanouts):
            raise ConfigurationError(
                f"fanouts must be positive, got {tuple(fanouts)}"
            )
        self._ensure_pool()

    # ------------------------------------------------------------ submission
    def submit(self, request: SampleRequest) -> int:
        """Dispatch a micro-batch to the shard workers; returns its seq.

        A worker still owing the reply to an earlier message is waited
        out (and that reply merged) before it is sent this one. A worker
        found gone fails its shards of this batch, raised by the batch's
        own collect/discard. At ``workers=0`` the tasks are queued, not
        run: the request is validated here, sampled at the first
        collect of a queued batch.
        """
        if self._closed:
            raise ParallelExecutionError("engine is closed")
        roots = self._internal_roots(request)
        self._ensure_pool()
        owners = self.store.partitioner.partition_of(roots)
        members = {
            shard: np.flatnonzero(owners == shard)
            for shard in range(self.num_shards)
        }
        members = {s: idx for s, idx in members.items() if idx.size}
        if self.workers:
            # Done before this batch exists, so a dead worker raising
            # here leaves no entry behind.
            for worker in sorted({shard % self.workers for shard in members}):
                while self._awaiting[worker] is not None:
                    self._pump([self._conns[worker]])
        seq = self._seq
        self._seq += 1
        width = 1
        layers = [roots]
        for fanout in request.fanouts:
            width *= fanout
            layers.append(np.empty((roots.size, width), dtype=np.int64))
        entry = _Pending(
            request=request,
            members=members,
            remaining=set(members),
            layers=layers,
        )
        self._pending[seq] = entry
        tasks = [
            ShardTask(
                seq=seq,
                shard=shard,
                roots=roots[members[shard]],
                fanouts=tuple(request.fanouts),
            )
            for shard in sorted(members)
        ]
        if self.workers == 0:
            self._queued.extend(tasks)
            return seq
        for worker, conn in enumerate(self._conns):
            mine = tuple(t for t in tasks if t.shard % self.workers == worker)
            if not mine:
                continue
            try:
                conn.send(mine)
                self._awaiting[worker] = seq
            except OSError as exc:
                entry.fail(
                    (t.shard for t in mine),
                    f"shard worker {self._procs[worker].name} is gone: {exc!r}",
                )
        return seq

    def _run_queued(self) -> None:
        """Run every queued inline task: one ``run_shards`` per distinct
        fanouts (a training stream has one), each task merged into its
        own batch.

        A failed expansion fails every micro-batch it carried; each
        raises from its own collect/discard.
        """
        windows: Dict[Tuple[int, ...], List[ShardTask]] = {}
        for task in self._queued:
            windows.setdefault(task.fanouts, []).append(task)
        self._queued = []
        for tasks in windows.values():
            try:
                layers, summary = self._inline.run_shards(
                    tasks, self.seed, self.worker_partition
                )
            except Exception:  # noqa: BLE001 - raised by each batch's collect
                seqs = sorted({task.seq for task in tasks})
                error = (
                    f"shards of micro-batches {seqs} failed:\n"
                    f"{traceback.format_exc()}"
                )
                for task in tasks:
                    self._pending[task.seq].fail((task.shard,), error)
                continue
            for task, task_layers in zip(tasks, layers):
                self._merge(self._pending[task.seq], task.shard, task_layers)
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

    def _pump(self, conns: List[Connection]) -> None:
        """Block for replies on ``conns`` and merge each into its batch.

        A failure reply is recorded on the batch and counts as its
        shards' completion; :meth:`_finish` raises it once the batch's
        other shards have reported, so no completion is left behind. A
        worker that died (EOF or a reset on its pipe) raises here.
        """
        idle = 0
        while True:
            ready = wait(conns, timeout=DONE_POLL_S)
            if ready:
                break
            self._check_alive()
            idle += 1
            if idle >= MAX_IDLE_POLLS:
                raise ParallelExecutionError("timed out waiting for shard workers")
        for conn in ready:
            worker = self._conns.index(conn)
            try:
                msg: ShardDone = conn.recv()
            except (EOFError, OSError) as exc:
                raise ParallelExecutionError(
                    f"shard worker {self._procs[worker].name} died unexpectedly"
                ) from exc
            self._receive(worker, msg)

    def _receive(self, worker: int, msg: ShardDone) -> None:
        if self._awaiting[worker] != msg.seq:
            raise ParallelExecutionError(
                f"unexpected reply for micro-batch {msg.seq} from shard "
                f"worker {self._procs[worker].name}"
            )
        self._awaiting[worker] = None
        entry = self._pending.get(msg.seq)
        if entry is None:
            return  # its batch was dropped when a wait on it failed
        if msg.error is not None:
            entry.fail(
                msg.shards,
                f"shards {list(msg.shards)} of micro-batch {msg.seq} "
                f"failed:\n{msg.error}",
            )
            return
        for shard, layers in zip(msg.shards, msg.layers):
            self._merge(entry, shard, layers)
        self.store.absorb_summary(msg.summary)

    def _finish(self, seq: int) -> _Pending:
        """Complete micro-batch ``seq``'s shards and drop its entry:
        inline, run the queue if they are still in it; else wait out
        the workers' replies.

        The entry goes however that ends; a shard failure is raised
        only after that.
        """
        entry = self._pending.get(seq)
        if entry is None:
            raise ParallelExecutionError(f"unknown micro-batch {seq}")
        try:
            if self.workers == 0:
                if entry.remaining:
                    self._run_queued()
            else:
                while entry.remaining:
                    self._pump(self._conns)
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

        Waits out its remaining shard replies (so no worker still owes
        one), then drops the pending entry without the attribute
        gather. Used by :meth:`PipelinedExecutor.drain` to flush the
        pipeline after a failed compute step. Shard accounting that
        already merged stays in the store summary: the sampling work
        really happened. An inline batch still queued is dropped unrun,
        so nothing is charged for it.
        """
        entry = self._pending.get(seq)
        if entry is not None and self.workers == 0:
            self._queued = [task for task in self._queued if task.seq != seq]
            entry.remaining.clear()
        self._finish(seq)

    # -------------------------------------------------------------- sampling
    def sample(self, request: SampleRequest) -> SampleResult:
        """Execute one request across the shard workers (submit+collect)."""
        return self.collect(self.submit(request))


def derive_negative_seed(seed: int) -> np.random.SeedSequence:
    """SeedSequence stream reserved for coordinator-side negative sampling."""
    return np.random.SeedSequence(entropy=seed, spawn_key=(2**31,))
