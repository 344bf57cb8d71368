"""mutate_mixed: online mutations interleaved with wide batched sampling."""

from __future__ import annotations

import copy
from time import perf_counter

from repro.framework.sampler import MultiHopSampler
from repro.graph.dynamic import DynamicGraph
from repro.graph.partition import HashPartitioner
from repro.memstore.ingest import NODE, DynamicPartitionedStore, growth_trace

from harness import Workload
from workloads import common


class MutateMixed(Workload):
    """Writes beside reads on the sample_wide read path: a read-side gain
    paid for by costlier writes, invalidation or compaction shows here."""

    NAME = "mutate_mixed"
    ITEM = "roots"
    OP = "apply 256 growth_trace mutations, then sample 256 roots, fanouts (10,10)"
    LAYERS = dict(common.SAMPLER_LAYERS, **{"memstore.apply_s": ("memstore.apply", "total")})
    SETUP_LAYERS = {"graph.build_s": ("graph.build", "total")}

    FANOUTS = (10, 10)

    def setup(self, tracer):
        # ops x mutations per segment = the compaction threshold: every
        # segment pays for exactly one compaction, so segments are equal.
        self.nodes, self.roots, self.batches, self.mutations, threshold = (
            (2000, 64, 2, 64, 128) if self.smoke else (20000, 256, 16, 256, 4096)
        )
        self.base = common.ll_graph(self.seed, self.nodes, tracer)
        self.store = DynamicPartitionedStore(
            DynamicGraph(self.base, compact_threshold=threshold),
            HashPartitioner(common.PARTITIONS),
        )
        self.sampler = MultiHopSampler(
            self.store, seed=self.seed, worker_partition=common.WORKER_PARTITION, batched=True
        )
        self.sampler.sample(self._requests(-1)[0])
        self.store.reset_trace()
        self.applied = self.node_events = 0
        self.torn_reads = 0
        self.apply_rates = []

    def _requests(self, segment):
        # Roots stay inside the base graph; nodes the trace adds are
        # reached through the edges it adds.
        return common.requests(
            self.seed, segment, self.batches, self.base.num_nodes, self.roots, self.FANOUTS
        )

    def inputs(self, segment):
        """The segment's root batches and its slice of the mutation trace."""
        trace = growth_trace(
            self.store.dynamic.num_nodes,
            self.batches * self.mutations,
            seed=self.seed + 1 + segment,
        )
        self.applied += len(trace)
        self.node_events += sum(m.kind == NODE for m in trace)
        return self._requests(segment), trace

    def trace(self, tracer):
        common.trace_sampler(tracer, self.sampler)
        tracer.wrap(self.store, "apply", "memstore.apply")

    def segment(self, index, inputs):
        batch, trace = inputs
        times = []
        apply_s = 0.0
        for i, request in enumerate(batch):
            mutations = trace[i * self.mutations : (i + 1) * self.mutations]
            start = perf_counter()
            self.store.apply(mutations)
            applied = perf_counter()
            self.sampler.sample(request)
            times.append(perf_counter() - start)
            apply_s += applied - start
            self.torn_reads += len(self.store.last_sample_epochs) > 1
        self.attempted += len(batch)
        self.apply_rates.append(len(trace) / apply_s)
        return len(batch) * self.roots, times

    def snapshot(self):
        self.summary = copy.copy(self.store.summary)
        self.ingest = copy.copy(self.store.ingest_stats)

    def outcome(self):
        return dict(
            common.summary_outcome(self.summary),
            **{
                "memstore.mutations_per_s": self.apply_rates,
                "memstore.compactions": float(self.ingest.compactions),
                "memstore.delta_hits": float(self.ingest.delta_hits),
                "memstore.delta_edges_read": float(self.ingest.delta_edges_read),
            },
        )

    def counted(self, counts, folds):
        return common.sampler_counts(counts, folds)

    def check(self):
        stats = self.store.ingest_stats
        return {
            "one_epoch_per_sample": self.torn_reads == 0,
            # Every trace event adds exactly one edge; node events also
            # add their node.
            "ingest_matches_trace": stats.mutations == self.applied
            and stats.edges_added == self.applied
            and stats.nodes_added == self.node_events,
        }
