"""Shard worker: the per-process sampling loop of the parallel engine.

Each worker attaches to the shard plane (zero-copy graph views), builds
its own :class:`~repro.memstore.store.PartitionedStore` over the shared
arrays, and executes :class:`ShardTask` messages: sample the hop layers
for one shard's slice of a micro-batch, write them straight into the
micro-batch's result arena, and report the shard-local
:class:`~repro.memstore.store.AccessSummary` back to the coordinator.

Determinism contract
--------------------
The RNG stream for a task depends only on ``(seed, shard, seq)`` —
:func:`shard_seed` derives an independent ``SeedSequence`` per (shard,
micro-batch) pair — and shard membership depends only on the
partitioner. Neither depends on worker count, task-to-worker placement,
or completion order, so the merged result is bit-identical whether the
tasks run in-process, on one worker, or on eight.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.framework.requests import SampleRequest, nodes_per_root
from repro.framework.sampler import MultiHopSampler
from repro.framework.selectors import get_selector
from repro.graph.partition import Partitioner
from repro.memstore.store import AccessSummary, PartitionedStore
from repro.parallel.shm import BlockHandle, GraphHandle, attach_graph


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

    The partitioner and the locality-tracking flag are shipped verbatim
    so the worker's shadow store attributes every access exactly as the
    coordinator's store would have.
    """

    graph: GraphHandle
    arenas: Tuple[BlockHandle, ...]
    shard_region_bytes: int
    partitioner: Partitioner
    track_locality: bool
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
    """Completion report for one :class:`ShardTask`."""

    seq: int
    shard: int
    count: int
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
    fallback (``workers=0``), so both run byte-identical code.
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
        shadow = PartitionedStore(
            store.graph, store.partitioner, track_locality=store.track_locality
        )
        sampler = MultiHopSampler(shadow, selector=get_selector(sampling_method))
        return cls(shadow, sampler)

    @classmethod
    def from_config(cls, config: WorkerConfig) -> "ShardRuntime":
        attached = attach_graph(config.graph)
        store = PartitionedStore(
            attached.graph,
            config.partitioner,
            track_locality=config.track_locality,
        )
        sampler = MultiHopSampler(store, selector=get_selector(config.sampling_method))
        runtime = cls(store, sampler)
        runtime._attached = attached  # keep the mapping alive
        return runtime

    def close(self) -> None:
        attached = getattr(self, "_attached", None)
        if attached is not None:
            attached.close()

    def run_shard(
        self, task: ShardTask, seed: int, worker_partition: Optional[int]
    ) -> Tuple[List[np.ndarray], AccessSummary]:
        """Sample one shard task; return hop layers and the access delta."""
        self.sampler.rng = np.random.default_rng(
            shard_seed(seed, task.shard, task.seq)
        )
        self.sampler.worker_partition = worker_partition
        self.store.reset_trace()
        request = SampleRequest(
            roots=task.roots, fanouts=task.fanouts, with_attributes=False
        )
        result = self.sampler.sample(request)
        return result.layers[1:], self.store.summary


def worker_main(config: WorkerConfig, tasks, done) -> None:
    """Worker process entry point: drain tasks until the ``None`` sentinel.

    Every task failure is reported through the done queue (never
    swallowed); the coordinator converts it into a
    :class:`~repro.errors.ParallelExecutionError`.
    """
    runtime = ShardRuntime.from_config(config)
    from repro.parallel.shm import AttachedBlock

    arenas = [AttachedBlock(handle) for handle in config.arenas]
    try:
        while True:
            task = tasks.get()
            if task is None:
                break
            try:
                layers, summary = runtime.run_shard(
                    task, config.seed, config.worker_partition
                )
                offset = task.shard * config.shard_region_bytes
                write_layers(arenas[task.slot].buf, offset, layers)
                done.put(
                    ShardDone(task.seq, task.shard, task.roots.size, summary, None)
                )
            except Exception:  # noqa: BLE001 - reported to the coordinator
                done.put(
                    ShardDone(
                        task.seq,
                        task.shard,
                        task.roots.size,
                        None,
                        traceback.format_exc(),
                    )
                )
    finally:
        for arena in arenas:
            arena.close()
        runtime.close()
