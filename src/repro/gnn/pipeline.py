"""The one trainer: graphSAGE over sampled mini-batches (LSD-GNN).

:class:`PipelinedTrainer` drives the
:class:`~repro.parallel.pipeline.PipelinedExecutor` so shard workers
hop-sample micro-batch *k+1* while the coordinator runs the
forward/backward of micro-batch *k* — the paper's LSD-GNN shape. The
trainable state is a graphSAGE encoder, a linear classification head
and, with ``features="embedding"``, a :class:`~repro.gnn.embedding.
ShardedEmbeddingTable` partitioned like the store; each micro-batch
does one feature gather over all of its hop layers (table rows or
store attributes), one forward/backward, one gradient scatter-add into
the table (if any), and one optimizer step.

Determinism contract
--------------------
Losses and weights are **bit-identical at every worker count** (the
same bar the sampler meets): shard results are bit-identical by the
engine's (seed, shard, seq) streams, the executor yields them in
request order, the embedding scatter-add sums every occurrence of a
node in occurrence order whatever the shard count, and all compute
runs on the coordinator.

:class:`NeighborhoodCache` is the ScaleGNN trick: repeated-epoch
training re-samples the same multi-hop neighborhoods every epoch, so
the trainer can memoize per-root hop layers keyed by (graph epoch,
request fingerprint) and serve later epochs from memory. Hit/miss
counters are occurrence-accurate and flow into the store's
:class:`~repro.memstore.store.AccessSummary` via
:meth:`~repro.memstore.store.PartitionedStore.record_neighborhood`.

Like every module it is clock-free (the ``det-wallclock`` lint rule).
All wall-clock measurement happens outside the package, in the
``train_fresh``/``train_cached`` workloads of ``bench/``.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.framework.requests import SampleRequest, SampleResult
from repro.gnn.embedding import ShardedEmbeddingTable
from repro.gnn.layers import Dense
from repro.gnn.metrics import micro_f1
from repro.gnn.models import GraphSageEncoder
from repro.gnn.train import multilabel_loss
from repro.memstore.store import PartitionedStore
from repro.parallel.engine import ParallelSampler
from repro.parallel.pipeline import PipelinedExecutor
from repro.parallel.worker import hop_elements

#: SeedSequence spawn key reserved for the epoch-shuffle stream (the
#: engine's shard streams use (shard, seq); negative sampling uses
#: (2**31,)).
SHUFFLE_STREAM_KEY = 2**31 + 1


@dataclass(frozen=True)
class CacheFingerprint:
    """Identity of the sampling distribution a cached layer came from.

    Two requests with the same fingerprint over the same graph epoch
    draw from the same family of neighborhoods, so serving one from the
    other's cached layers is a reuse, not a corruption. Any component
    changing (different fanouts, selector, seed, or a mutated graph)
    invalidates the whole cache.
    """

    graph_epoch: int
    fanouts: Tuple[int, ...]
    sampling_method: str
    seed: int
    generation: int


class NeighborhoodCache:
    """Memoizes per-root multi-hop layers for repeated-epoch training.

    Each entry maps a root node to its flattened hop layers (all hops
    concatenated, ``hop_elements(fanouts)`` int64 values). The rows
    live in one capacity-doubling ``(n, hop_elements)`` block with a
    ``root -> row`` dict beside it, so an insert is one slice
    assignment and assembling a micro-batch one gather. Entries are
    valid only under the current :class:`CacheFingerprint`; a
    fingerprint change (graph mutation, new cache generation) clears
    the cache. ``cached_epochs`` bounds reuse: generation ``e //
    cached_epochs`` changes every ``cached_epochs`` trained epochs, so
    neighborhoods are re-sampled at least that often — the ScaleGNN
    staleness/throughput dial.

    ``root_hits`` / ``root_misses`` are occurrence-accurate: every root
    occurrence probed counts exactly one hit or one miss, in probe
    order. A root an earlier probe of the same epoch missed hits: the
    batch that missed it is trained, and inserts it, before any later
    batch is, so probe outcomes depend on batch order alone, not on how
    far sampling runs ahead of training. The counters are owned by
    this module; per-batch deltas flow into the store summary through
    :meth:`~repro.memstore.store.PartitionedStore.record_neighborhood`.
    (Ownership is declared in the counter-ownership registry:
    ``repro/analysis/rules/crossmodule/registry.py``.)
    """

    def __init__(self, cached_epochs: int) -> None:
        if cached_epochs < 1:
            raise ConfigurationError(
                f"cached_epochs must be >= 1, got {cached_epochs}"
            )
        self.cached_epochs = cached_epochs
        self.root_hits = 0
        self.root_misses = 0
        self._fingerprint: Optional[CacheFingerprint] = None
        self._index: Dict[int, int] = {}
        #: Roots missed since the epoch began: inserted by the time a
        #: later batch of the epoch is trained.
        self._reserved: Set[int] = set()
        self._block = np.empty((0, 0), dtype=np.int64)

    def __len__(self) -> int:
        return len(self._index)

    def begin_epoch(
        self,
        graph_epoch: int,
        fanouts: Tuple[int, ...],
        sampling_method: str,
        seed: int,
        trained_epochs: int,
    ) -> None:
        """Start an epoch: roll the fingerprint forward (clearing the
        entries when it changes) and forget the last epoch's misses."""
        self._reserved = set()
        fingerprint = CacheFingerprint(
            graph_epoch=graph_epoch,
            fanouts=tuple(fanouts),
            sampling_method=sampling_method,
            seed=seed,
            generation=trained_epochs // self.cached_epochs,
        )
        if fingerprint != self._fingerprint:
            self._fingerprint = fingerprint
            self._index = {}
            self._block = np.empty(
                (0, hop_elements(fingerprint.fanouts)), dtype=np.int64
            )

    def probe(self, roots: np.ndarray) -> np.ndarray:
        """Boolean hit mask for each root occurrence (counted); the
        roots it misses hit from the next probe of this epoch on."""
        roots = roots.tolist()
        hits = np.fromiter(
            (root in self._index or root in self._reserved for root in roots),
            dtype=bool,
            count=len(roots),
        )
        hit_count = int(hits.sum())
        self.root_hits += hit_count
        self.root_misses += len(roots) - hit_count
        self._reserved.update(roots)
        return hits

    def insert(self, roots: np.ndarray, result: SampleResult) -> None:
        """Memoize the hop layers of ``result`` per root (first wins).

        ``roots`` must be ``result``'s request roots: row ``i`` of every
        hop layer belongs to ``roots[i]``. The first insert of a root
        wins.
        """
        flat = np.concatenate(
            [layer.reshape(roots.size, -1) for layer in result.layers[1:]],
            axis=1,
        )
        start = len(self._index)
        fresh = []
        for i, root in enumerate(roots.tolist()):
            if root not in self._index:
                self._index[root] = start + len(fresh)
                fresh.append(i)
        stop = start + len(fresh)
        if stop > self._block.shape[0]:
            grown = np.empty(
                (max(stop, 2 * self._block.shape[0]), self._block.shape[1]),
                dtype=np.int64,
            )
            grown[:start] = self._block[:start]
            self._block = grown
        self._block[start:stop] = flat[fresh]

    def assemble(
        self, roots: np.ndarray, fanouts: Tuple[int, ...]
    ) -> List[np.ndarray]:
        """Reconstruct full hop layers for ``roots`` from cached rows."""
        rows = self._block[[self._index[root] for root in roots.tolist()]]
        layers: List[np.ndarray] = [np.asarray(roots, dtype=np.int64).copy()]
        offset = 0
        width = 1
        for fanout in fanouts:
            width *= fanout
            layers.append(rows[:, offset : offset + width])
            offset += width
        return layers


@dataclass
class _BatchPlan:
    """One micro-batch's bookkeeping through the pipelined epoch."""

    roots: np.ndarray
    label_rows: np.ndarray
    #: Sorted-unique roots that must be sampled (None = fully cached).
    request_roots: Optional[np.ndarray]
    hits: int = 0
    misses: int = 0


@dataclass
class TrainReport:
    """Outcome of a :meth:`PipelinedTrainer.train` run.

    Wall-clock rates are deliberately absent — this module is
    clock-free; ``bench/`` times passes externally and derives
    samples/sec itself.
    """

    epochs: int = 0
    micro_batches: int = 0
    samples: int = 0
    epoch_losses: List[float] = field(default_factory=list)
    final_loss: float = float("nan")
    weights_digest: str = ""
    cache_hits: int = 0
    cache_misses: int = 0


class PipelinedTrainer:
    """Sample→train pipeline over the sharded parallel engine.

    Parameters
    ----------
    store:
        The coordinator's :class:`PartitionedStore`; its partitioner
        also shards the embedding table, so embedding ownership is
        fixed across worker counts.
    labels:
        ``(num_nodes, num_labels)`` multi-label targets, one row per
        node ID, like ``roots``.
    fanouts:
        Hop fanouts of the sampled neighborhoods.
    embedding_dim:
        Table width (``features="attributes"`` rows are ``attr_len``).
    workers:
        Shard worker processes; ``0`` runs the identical shard tasks
        inline (the determinism reference).
    pipeline_depth:
        Micro-batches in flight on a worker pool (>= 2 overlaps
        sampling with compute). At ``workers=0`` the executor runs a
        window of ``INLINE_WINDOW_POSITIONS`` sampled positions ahead
        instead.
    cached_epochs:
        ``0`` disables the :class:`NeighborhoodCache`; ``k >= 1``
        re-samples neighborhoods every ``k`` epochs and serves the
        epochs in between from the cache.
    features:
        ``"embedding"`` trains a node-embedding table; ``"attributes"``
        feeds store attributes (one deduplicated gather per micro-batch)
        and scatters no gradient. Requests are ID-only either way.
    """

    def __init__(
        self,
        store: PartitionedStore,
        labels: np.ndarray,
        fanouts: Sequence[int],
        embedding_dim: int = 16,
        hidden_dim: int = 16,
        lr: float = 0.05,
        seed: int = 0,
        workers: int = 0,
        pipeline_depth: int = 2,
        batch_size: int = 32,
        sampling_method: str = "uniform",
        cached_epochs: int = 0,
        aggregator: str = "max",
        features: str = "embedding",
    ) -> None:
        labels = np.asarray(labels, dtype=np.float32)
        if labels.ndim != 2 or labels.shape[0] != store.graph.num_nodes:
            raise ConfigurationError(
                "labels must have shape (num_nodes, num_labels); got "
                f"{labels.shape} for {store.graph.num_nodes} nodes"
            )
        if batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
        if lr <= 0:
            raise ConfigurationError(f"lr must be positive, got {lr}")
        if cached_epochs < 0:
            raise ConfigurationError(
                f"cached_epochs must be >= 0, got {cached_epochs}"
            )
        if features not in ("embedding", "attributes"):
            raise ConfigurationError(
                f"features must be 'embedding' or 'attributes', got {features!r}"
            )
        if features == "attributes" and store.graph.attr_len == 0:
            raise ConfigurationError(
                "features='attributes' needs node attributes; this graph has none"
            )
        self.store = store
        self.labels = labels
        self.fanouts = tuple(int(f) for f in fanouts)
        self.lr = lr
        self.seed = seed
        self.batch_size = batch_size
        self.sampling_method = sampling_method
        self.engine = ParallelSampler(
            store, workers=workers, seed=seed, sampling_method=sampling_method
        )
        self.executor = PipelinedExecutor(self.engine, depth=pipeline_depth)
        self.embeddings: Optional[ShardedEmbeddingTable] = None
        if features == "embedding":
            self.embeddings = ShardedEmbeddingTable(
                store.graph.num_nodes, embedding_dim, store.partitioner, seed=seed
            )
        else:
            embedding_dim = store.graph.attr_len
        self.encoder = GraphSageEncoder(
            embedding_dim,
            hidden_dim,
            self.fanouts,
            aggregator=aggregator,
            seed=seed,
        )
        self.head = Dense(
            hidden_dim, labels.shape[1], activation="linear", seed=seed
        )
        self.cache: Optional[NeighborhoodCache] = (
            NeighborhoodCache(cached_epochs) if cached_epochs else None
        )
        self._shuffle_rng = np.random.default_rng(
            np.random.SeedSequence(
                entropy=seed, spawn_key=(SHUFFLE_STREAM_KEY,)
            )
        )
        self._trained_epochs = 0
        self._micro_batches = 0
        self._samples = 0

    # ----------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Release the sampling engine (its worker pool, if any)."""
        self.engine.close()

    def __enter__(self) -> "PipelinedTrainer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------ training
    def train(self, roots: np.ndarray, epochs: int = 1) -> TrainReport:
        """Run ``epochs`` pipelined epochs over ``roots``; see TrainReport."""
        if epochs < 1:
            raise ConfigurationError(f"epochs must be >= 1, got {epochs}")
        report = TrainReport(epochs=epochs)
        before = self._totals()
        for _ in range(epochs):
            report.epoch_losses.append(self.train_epoch(roots))
        # This call's own work, not the trainer's lifetime totals.
        (
            report.micro_batches,
            report.samples,
            report.cache_hits,
            report.cache_misses,
        ) = (now - then for now, then in zip(self._totals(), before))
        report.final_loss = report.epoch_losses[-1]
        report.weights_digest = self.weights_digest()
        return report

    def _totals(self) -> Tuple[int, int, int, int]:
        """Lifetime (micro-batches, samples, cache hits, cache misses)."""
        if self.cache is None:
            return self._micro_batches, self._samples, 0, 0
        return (
            self._micro_batches,
            self._samples,
            self.cache.root_hits,
            self.cache.root_misses,
        )

    def train_epoch(self, roots: np.ndarray) -> float:
        """One shuffled pass over ``roots``; returns the mean batch loss.

        Micro-batches flow through the pipelined executor: the request
        generator probes the cache and submits sampling work ahead
        (``pipeline_depth`` batches on a worker pool, one window
        inline), while this loop consumes results in order and runs
        forward/backward — so shard workers hop-sample batch *k+1*
        during batch *k*'s compute.
        """
        roots = np.asarray(roots, dtype=np.int64).reshape(-1)
        if roots.size == 0:
            raise ConfigurationError("cannot train on an empty root set")
        if self.cache is not None:
            self.cache.begin_epoch(
                graph_epoch=int(getattr(self.store.graph, "epoch", 0)),
                fanouts=self.fanouts,
                sampling_method=self.sampling_method,
                seed=self.seed,
                trained_epochs=self._trained_epochs,
            )
        order = self._shuffle_rng.permutation(roots.size)
        plans: Deque[_BatchPlan] = deque()
        losses: List[float] = []

        def requests() -> Iterator[SampleRequest]:
            for start in range(0, order.size, self.batch_size):
                rows = order[start : start + self.batch_size]
                plan = self._plan_batch(roots[rows], rows)
                plans.append(plan)
                if plan.request_roots is not None:
                    yield SampleRequest(
                        roots=plan.request_roots,
                        fanouts=self.fanouts,
                        with_attributes=False,
                    )

        for result in self.executor.stream(requests()):
            # Fully-cached batches queued ahead of this result trained
            # first: batch order is the determinism contract.
            while plans and plans[0].request_roots is None:
                losses.append(self._train_plan(plans.popleft(), None))
            losses.append(self._train_plan(plans.popleft(), result))
        while plans:
            losses.append(self._train_plan(plans.popleft(), None))

        self._trained_epochs += 1
        return float(np.mean(losses))

    def _plan_batch(self, batch_roots: np.ndarray, rows: np.ndarray) -> _BatchPlan:
        """Probe the cache and decide what (if anything) to sample."""
        if self.cache is None:
            return _BatchPlan(
                roots=batch_roots, label_rows=rows, request_roots=batch_roots
            )
        hits = self.cache.probe(batch_roots)
        missing = np.unique(batch_roots[~hits])
        return _BatchPlan(
            roots=batch_roots,
            label_rows=rows,
            request_roots=missing if missing.size else None,
            hits=int(hits.sum()),
            misses=int(batch_roots.size - hits.sum()),
        )

    def _train_plan(
        self, plan: _BatchPlan, result: Optional[SampleResult]
    ) -> float:
        """Assemble one micro-batch's layers and run its training step."""
        if self.cache is not None:
            if result is not None:
                self.cache.insert(plan.request_roots, result)
            layers = self.cache.assemble(plan.roots, self.fanouts)
            self.store.record_neighborhood(plan.hits, plan.misses)
        else:
            layers = result.layers
        return self._train_step(layers, self.labels[plan.roots])

    def _features(self, layers: List[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
        """``(nodes, rows)``: the hop layers' IDs stacked slot-major, and
        the encoder's input block — one ``lookup``, or one attribute
        gather charged once per occurrence."""
        nodes = self.encoder.stack(layers)
        if self.embeddings is not None:
            return nodes, self.embeddings.lookup(nodes)
        unique, inverse, counts = np.unique(
            nodes, return_inverse=True, return_counts=True
        )
        batch = self.store.get_attributes_batch(unique, counts=counts)
        return nodes, batch.rows[inverse]

    def _train_step(
        self, layers: List[np.ndarray], labels: np.ndarray
    ) -> float:
        """Gather → forward/backward → scatter-add → step (one batch).

        The input block's gradient goes to the one ``accumulate_grad``
        with the stacked IDs — each node's float32 additions in
        block-row order, the order ``weights_digest`` pins. Each stage
        is reached by attribute lookup at call time, so a tracer can
        shadow it on the instance.
        """
        nodes, rows = self._features(layers)

        def grad_fn(embeddings: np.ndarray) -> Tuple[float, np.ndarray]:
            logits = self.head.forward(embeddings)
            loss, grad_logits = multilabel_loss(logits, labels)
            return loss, self.head.backward(grad_logits)

        _, loss = self.encoder.forward_backward(rows, grad_fn)
        if self.embeddings is not None:
            self.embeddings.accumulate_grad(nodes, self.encoder.input_gradients)
            self.embeddings.step(self.lr)
        self.head.step(self.lr)
        self.encoder.step(self.lr)
        self._micro_batches += 1
        self._samples += int(layers[0].size)
        return loss

    # ----------------------------------------------------------- inference
    def embed(self, roots: np.ndarray) -> np.ndarray:
        """Encoder outputs for ``roots`` over one fresh sample (no update)."""
        request = SampleRequest(
            roots=np.asarray(roots, dtype=np.int64).reshape(-1),
            fanouts=self.fanouts,
            with_attributes=False,
        )
        _, rows = self._features(self.engine.sample(request).layers)
        return self.encoder.forward(rows)

    def predict(self, roots: np.ndarray) -> np.ndarray:
        """Binary multi-label predictions for ``roots``."""
        return (self.head.forward(self.embed(roots)) > 0).astype(np.int64)

    def evaluate(self, roots: np.ndarray) -> float:
        """Micro-F1 of :meth:`predict` against ``labels`` on ``roots``."""
        roots = np.asarray(roots, dtype=np.int64).reshape(-1)
        return micro_f1(self.predict(roots), self.labels[roots].astype(np.int64))

    # ----------------------------------------------------------- inspection
    def weights_digest(self) -> str:
        """SHA-256 over every trainable array, in a fixed order.

        Bit-identical runs (the workers=0/1/2/4 parity bar) produce the
        same digest; any single differing bit changes it.
        """
        digest = hashlib.sha256()
        for shard in self.embeddings.shards if self.embeddings is not None else ():
            digest.update(np.ascontiguousarray(shard.rows).tobytes())
        for dense in self.encoder.dense_layers() + [self.head]:
            digest.update(np.ascontiguousarray(dense.weight).tobytes())
            digest.update(np.ascontiguousarray(dense.bias).tobytes())
        return digest.hexdigest()
