"""Shard worker: the per-process sampling loop of the parallel engine.

Each worker inherits the coordinator's graph (copy-on-write under
``fork``; pickled once per worker under ``spawn``), builds its own
:class:`~repro.memstore.store.PartitionedStore` over it, and executes
one message per micro-batch: the :class:`ShardTask` s of that batch
placed on it. It samples them as one hop expansion (one RNG stream per
task) and replies with one :class:`ShardDone` carrying each task's hop
layers and the message's :class:`~repro.memstore.store.AccessSummary`.

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
from repro.graph.csr import CSRGraph
from repro.graph.partition import Partitioner
from repro.memstore.store import AccessSummary, PartitionedStore


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

    The graph is the coordinator store's own (in store IDs); the
    partitioner is shipped verbatim so the worker's shadow store
    attributes every access local or remote exactly as the
    coordinator's store would have.
    """

    graph: CSRGraph
    partitioner: Partitioner
    seed: int
    sampling_method: str
    worker_partition: Optional[int]


@dataclass(frozen=True)
class ShardTask:
    """Sample one shard's slice of micro-batch ``seq``."""

    seq: int
    shard: int
    roots: np.ndarray
    fanouts: Tuple[int, ...]


@dataclass(frozen=True)
class ShardDone:
    """Reply to one worker message: the shards of micro-batch ``seq``
    it carried, with each shard's hop layers 1..H and their merged
    access delta, or the failure."""

    seq: int
    shards: Tuple[int, ...]
    layers: Optional[List[List[np.ndarray]]]
    summary: Optional[AccessSummary]
    error: Optional[str]


def hop_elements(fanouts: Tuple[int, ...]) -> int:
    """Sampled node occurrences per root across all hops (excl. root)."""
    return nodes_per_root(fanouts) - 1


class ShardRuntime:
    """The per-process sampling stack: shadow store and sampler.

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
    def from_config(cls, config: WorkerConfig) -> "ShardRuntime":
        """Runtime over ``config.graph`` with a *private* store, so task
        accounting starts from zero and merges through the shard-summary
        path whether it runs in a worker or inline. Shard tasks run in
        store IDs, so the shadow carries no relabeling."""
        store = PartitionedStore(config.graph, config.partitioner)
        sampler = MultiHopSampler(store, selector=get_selector(config.sampling_method))
        return cls(store, sampler)

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
                reply = ShardDone(seq, shards, layers, summary, None)
            except Exception:  # noqa: BLE001 - reported to the coordinator
                reply = ShardDone(seq, shards, None, None, traceback.format_exc())
            try:
                conn.send(reply)
            except OSError:
                break  # the coordinator is gone
    finally:
        conn.close()
