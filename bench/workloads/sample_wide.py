"""sample_wide: wide batched sampling on a static store (closed loop)."""

from __future__ import annotations

import copy

from repro.framework.replay import replay_reference
from repro.framework.sampler import MultiHopSampler
from repro.graph.partition import HashPartitioner
from repro.memstore.store import PartitionedStore

from harness import Workload
from workloads import common


class SampleWide(Workload):
    """Read-only and gather-heavy: memstore attribute/neighbour gathers and
    framework selection do nearly all the work; no IPC, no writes."""

    NAME = "sample_wide"
    ITEM = "roots"
    OP = "batch of 256 roots, fanouts (10,10), with attributes"
    LAYERS = common.SAMPLER_LAYERS
    SETUP_LAYERS = {"graph.build_s": ("graph.build", "total")}

    FANOUTS = (10, 10)

    def setup(self, tracer):
        self.nodes, self.roots, self.batches = (2000, 64, 2) if self.smoke else (20000, 256, 20)
        self.graph = common.ll_graph(self.seed, self.nodes, tracer)
        self.partitioner = HashPartitioner(common.PARTITIONS)
        self.store = PartitionedStore(self.graph, self.partitioner)
        self.sampler = self._sampler(self.store)
        self.sampler.sample(self.inputs(-1)[0])
        self.store.reset_trace()

    def _sampler(self, store):
        return MultiHopSampler(
            store, seed=self.seed, worker_partition=common.WORKER_PARTITION, batched=True
        )

    def inputs(self, segment):
        return common.requests(
            self.seed, segment, self.batches, self.graph.num_nodes, self.roots, self.FANOUTS
        )

    def trace(self, tracer):
        common.trace_sampler(tracer, self.sampler)

    def segment(self, index, batch):
        times = common.timed_each(self.sampler.sample, batch)
        self.attempted += len(batch)
        return len(batch) * self.roots, times

    def snapshot(self):
        self.summary = copy.copy(self.store.summary)

    def outcome(self):
        return common.summary_outcome(self.summary)

    def counted(self, counts, folds):
        return common.sampler_counts(counts, folds)

    def check(self):
        # Batch 0 again on a fresh store, then the per-node reference
        # walk pinned to the same layers: both must charge the store
        # exactly the same accesses.
        request = self.inputs(0)[0]
        batched_store = PartitionedStore(self.graph, self.partitioner)
        result = self._sampler(batched_store).sample(request)
        reference_store = PartitionedStore(self.graph, self.partitioner)
        replay_reference(
            result, request, reference_store, worker_partition=common.WORKER_PARTITION
        )
        return {"replay_summary_equal": batched_store.summary == reference_store.summary}
