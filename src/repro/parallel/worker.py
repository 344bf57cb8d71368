"""Shard worker: the per-process sampling loop of the parallel engine.

Each worker attaches to the shard plane (zero-copy graph views), builds
its own :class:`~repro.memstore.store.PartitionedStore` over the shared
arrays, and executes one message per micro-batch: the
:class:`ShardTask` s of that batch placed on it. It samples them as one
hop expansion (one RNG stream per task), writes each task's hop layers
straight into its region of the micro-batch's result arena, and replies
with one :class:`ShardDone` carrying the message's
:class:`~repro.memstore.store.AccessSummary`.

Determinism contract
--------------------
The RNG stream for a task depends only on ``(seed, shard, seq)`` —
:func:`shard_seed` derives an independent ``SeedSequence`` per (shard,
micro-batch) pair — and shard membership depends only on the
partitioner. Neither depends on worker count, task-to-worker placement,
or completion order, and a stream draws the same values whether its
task is expanded alone or beside others, so the merged result is
bit-identical whether the tasks run in-process, on one worker, or on
eight.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.framework.requests import nodes_per_root
from repro.framework.sampler import MultiHopSampler
from repro.framework.selectors import get_selector
from repro.graph.partition import Partitioner
from repro.memstore.store import AccessSummary, PartitionedStore
from repro.parallel.shm import AttachedBlock, BlockHandle, GraphHandle, attach_graph


def shard_seed(seed: int, shard: int, seq: int) -> np.random.SeedSequence:
    """Independent RNG stream for one (shard, micro-batch) task.

    ``spawn_key`` folds the shard and batch sequence number into the
    stream identity, so any process can (re)derive the exact stream
    for any task without coordination — the stateless analogue of
    ``SeedSequence.spawn``.
    """
    return np.random.SeedSequence(entropy=seed, spawn_key=(shard, seq))


@dataclass(frozen=True)
class WorkerConfig:
    """Everything a worker needs to reconstruct its sampling stack.

    The partitioner is shipped verbatim so the worker's shadow store
    attributes every access local or remote exactly as the
    coordinator's store would have.
    """

    graph: GraphHandle
    arenas: Tuple[BlockHandle, ...]
    shard_region_bytes: int
    partitioner: Partitioner
    seed: int
    sampling_method: str
    worker_partition: Optional[int]


@dataclass(frozen=True)
class ShardTask:
    """Sample one shard's slice of micro-batch ``seq`` into slot ``slot``."""

    seq: int
    shard: int
    slot: int
    roots: np.ndarray
    fanouts: Tuple[int, ...]


@dataclass(frozen=True)
class ShardDone:
    """Reply to one worker message: the shards of micro-batch ``seq``
    it carried, with their merged access delta or the failure."""

    seq: int
    shards: Tuple[int, ...]
    summary: Optional[AccessSummary]
    error: Optional[str]


def hop_elements(fanouts: Tuple[int, ...]) -> int:
    """Sampled node occurrences per root across all hops (excl. root)."""
    return nodes_per_root(fanouts) - 1


def region_bytes(count: int, fanouts: Tuple[int, ...]) -> int:
    """Arena bytes one shard needs for ``count`` roots of a micro-batch.

    Layers are packed as int64; this is the sizing contract shared by
    the coordinator (arena provisioning) and :func:`write_layers`.
    """
    return count * hop_elements(tuple(fanouts)) * np.dtype(np.int64).itemsize


def write_layers(
    buf: memoryview, offset: int, layers: List[np.ndarray]
) -> None:
    """Pack hop layers 1..H contiguously into an arena region."""
    for layer in layers:
        flat = np.ascontiguousarray(layer, dtype=np.int64).reshape(-1)
        out = np.ndarray(flat.shape, dtype=np.int64, buffer=buf, offset=offset)
        out[...] = flat
        offset += flat.nbytes


def read_layers(
    buf: memoryview, offset: int, count: int, fanouts: Tuple[int, ...]
) -> List[np.ndarray]:
    """Unpack hop layers 1..H for ``count`` roots from an arena region.

    Returns views into the arena — callers copy rows out during the
    merge scatter, so the region can be reused as soon as the merge
    completes.
    """
    layers = []
    width = 1
    for fanout in fanouts:
        width *= fanout
        layer = np.ndarray(
            (count, width), dtype=np.int64, buffer=buf, offset=offset
        )
        layers.append(layer)
        offset += layer.nbytes
    return layers


class ShardRuntime:
    """The per-process sampling stack: attached graph, store, sampler.

    Used by worker processes *and* by the coordinator's in-process
    fallback (``workers=0``), so both run byte-identical code. The
    shadow store never tracks locality: gather contiguity depends on
    which shards share an expansion, so the coordinator records it per
    shard instead.
    """

    def __init__(self, store: PartitionedStore, sampler: MultiHopSampler) -> None:
        self.store = store
        self.sampler = sampler

    @classmethod
    def from_store(cls, store: PartitionedStore, sampling_method: str) -> "ShardRuntime":
        """In-process runtime over an existing (coordinator) store's graph.

        Builds a *private* store over the same graph arrays so task
        accounting starts from zero and merges through the same
        shard-summary path as process workers. Shard tasks run in store
        IDs, so the shadow carries no relabeling.
        """
        shadow = PartitionedStore(store.graph, store.partitioner)
        sampler = MultiHopSampler(shadow, selector=get_selector(sampling_method))
        return cls(shadow, sampler)

    @classmethod
    def from_config(cls, config: WorkerConfig) -> "ShardRuntime":
        attached = attach_graph(config.graph)
        store = PartitionedStore(attached.graph, config.partitioner)
        sampler = MultiHopSampler(store, selector=get_selector(config.sampling_method))
        runtime = cls(store, sampler)
        runtime._attached = attached  # keep the mapping alive
        return runtime

    def close(self) -> None:
        attached = getattr(self, "_attached", None)
        if attached is not None:
            attached.close()

    def run_shards(
        self,
        tasks: Sequence[ShardTask],
        seed: int,
        worker_partition: Optional[int],
    ) -> Tuple[List[List[np.ndarray]], AccessSummary]:
        """Sample the tasks of one micro-batch as one hop expansion.

        The roots are concatenated in task order with one RNG stream
        per task, so each task draws exactly what it would expanded
        alone. Returns each task's hop layers (views into the shared
        expansion) and the access delta of the whole expansion.
        """
        self.sampler.worker_partition = worker_partition
        self.store.reset_trace()
        roots = np.concatenate([task.roots for task in tasks])
        streams = [
            (np.random.default_rng(shard_seed(seed, task.shard, task.seq)), task.roots.size)
            for task in tasks
        ]
        layers, _dedups = self.sampler._expand(roots, tasks[0].fanouts, streams)
        bounds = np.cumsum([0] + [task.roots.size for task in tasks])
        per_task = [
            [layer[start:stop] for layer in layers[1:]]
            for start, stop in zip(bounds[:-1], bounds[1:])
        ]
        return per_task, self.store.summary


def worker_main(config: WorkerConfig, conn) -> None:
    """Worker process entry point: serve messages until ``None`` or EOF.

    One message is the tuple of :class:`ShardTask` s of one micro-batch
    placed on this worker; it gets exactly one :class:`ShardDone` back.
    Every task failure is reported in that reply (never swallowed); the
    coordinator converts it into a
    :class:`~repro.errors.ParallelExecutionError`.
    """
    runtime = ShardRuntime.from_config(config)
    arenas = [AttachedBlock(handle) for handle in config.arenas]
    try:
        while True:
            try:
                tasks = conn.recv()
            except (EOFError, OSError):
                break  # the coordinator is gone
            if tasks is None:
                break
            seq = tasks[0].seq
            shards = tuple(task.shard for task in tasks)
            try:
                layers, summary = runtime.run_shards(
                    tasks, config.seed, config.worker_partition
                )
                for task, task_layers in zip(tasks, layers):
                    offset = task.shard * config.shard_region_bytes
                    write_layers(arenas[task.slot].buf, offset, task_layers)
                reply = ShardDone(seq, shards, summary, None)
            except Exception:  # noqa: BLE001 - reported to the coordinator
                reply = ShardDone(seq, shards, None, traceback.format_exc())
            try:
                conn.send(reply)
            except OSError:
                break  # the coordinator is gone
    finally:
        for arena in arenas:
            arena.close()
        runtime.close()
        conn.close()
