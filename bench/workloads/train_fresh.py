"""train_fresh: pipelined training that samples every epoch afresh."""

from __future__ import annotations

import math
import os
from time import perf_counter

import numpy as np

from repro.gnn.pipeline import PipelinedTrainer
from repro.graph.generators import power_law_graph
from repro.graph.partition import HashPartitioner
from repro.memstore.store import PartitionedStore

from harness import EXACT_SEGMENTS, Workload
from spans import span
from workloads import common


class TrainFresh(Workload):
    """Sampling and forward/backward are both on the blocking path; the
    default GnnSession.train configuration."""

    NAME = "train_fresh"
    ITEM = "training samples"
    OP = "pass over a quarter of the nodes, micro-batches of 64, fanouts (4,3), dims 16/16, workers=0"
    LAYERS = {
        "gnn.sample_s": ("gnn.sample", "total"),
        "gnn.lookup_s": ("gnn.lookup", "total"),
        "gnn.forward_backward_s": ("gnn.forward_backward", "total"),
        "gnn.scatter_s": ("gnn.scatter", "total"),
        "gnn.optimizer_s": ("gnn.optimizer", "total"),
    }
    SETUP_LAYERS = {"graph.build_s": ("graph.build", "total")}

    FANOUTS = (4, 3)
    #: A segment trains on every 4th node, so a 6 s region holds ~30
    #: segments instead of 8 whole epochs; four segments make an epoch.
    STRIDE = 4
    #: 0 = no NeighborhoodCache; train_cached overrides it.
    CACHED_EPOCHS = 0

    def setup(self, tracer):
        self.nodes, self.batch_size = (400, 32) if self.smoke else (8000, 64)
        with span(tracer, "graph.build"):
            self.graph = power_law_graph(self.nodes, 8, attr_len=0, seed=self.seed)
        self.labels = (
            np.random.default_rng(self.seed).random((self.nodes, 8)) < 0.3
        ).astype(np.float32)
        self.roots = np.arange(self.nodes, dtype=np.int64)
        self.trainer = self._trainer(workers=0)
        # The warm-up epoch (the cache-filling one for train_cached).
        self.losses = [self.trainer.train_epoch(self.roots)]

    def _trainer(self, workers):
        return PipelinedTrainer(
            PartitionedStore(self.graph, HashPartitioner(common.PARTITIONS)),
            self.labels,
            self.FANOUTS,
            embedding_dim=16,
            hidden_dim=16,
            seed=self.seed,
            workers=workers,
            pipeline_depth=2,
            batch_size=self.batch_size,
            cached_epochs=self.CACHED_EPOCHS,
        )

    def trace(self, tracer):
        trainer = self.trainer
        # With workers=0 submit runs the shard tasks inline, so these
        # two spans are all of the trainer's sampling.
        tracer.wrap(trainer.engine, "submit", "gnn.sample")
        tracer.wrap(trainer.engine, "collect", "gnn.sample")
        tracer.wrap(trainer.embeddings, "lookup", "gnn.lookup")
        tracer.wrap(trainer.embeddings, "accumulate_grad", "gnn.scatter")
        tracer.wrap(trainer.encoder, "forward_backward", "gnn.forward_backward", _tally_batch)
        for module in (trainer.embeddings, trainer.encoder, trainer.head):
            tracer.wrap(module, "step", "gnn.optimizer")

    def inputs(self, index):
        return self.roots[index % self.STRIDE :: self.STRIDE]

    def segment(self, index, roots):
        start = perf_counter()
        self.losses.append(self.trainer.train_epoch(roots))
        self.attempted += 1
        return roots.size, [perf_counter() - start]

    def snapshot(self):
        self.digest = self.trainer.weights_digest()

    def outcome(self):
        return {"gnn.final_loss": self.losses[EXACT_SEGMENTS]}

    def counted(self, counts, folds):
        return {"gnn.micro_batches": counts["gnn.micro_batches"]}

    def side_measurements(self, op_times):
        """Does one shard worker overlap sampling with compute here?

        Two epochs over the first half of the roots at workers=1 against
        the same at workers=0. Informational: on a shared 2-core host
        this ratio moves by tens of percent between runs.
        """
        if len(os.sched_getaffinity(0)) < 2:
            return {}
        half = self.roots[: self.nodes // 2]
        seconds = []
        for workers in (0, 1):
            with self._trainer(workers) as trainer:
                start = perf_counter()
                trainer.train(half, epochs=2)
                seconds.append(perf_counter() - start)
        return {"gnn.overlap_speedup_w1": seconds[0] / seconds[1]}

    def notes(self):
        exact = self.losses[: EXACT_SEGMENTS + 1]
        return {
            "pass_losses (warm-up epoch first)": [round(loss, 6) for loss in exact],
            f"weights_digest after {EXACT_SEGMENTS} timed passes": self.digest,
        }

    def check(self):
        return {
            "loss_finite": all(math.isfinite(loss) for loss in self.losses),
            "loss_decreasing": self.losses[-1] < self.losses[0],
        }

    def close(self):
        self.trainer.close()


def _tally_batch(counts, args, kwargs, _result):
    counts["gnn.micro_batches"] += 1
