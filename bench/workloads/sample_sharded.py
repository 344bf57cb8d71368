"""sample_sharded: small batches through two shard worker processes."""

from __future__ import annotations

import copy
import os
import statistics
import tempfile

import numpy as np

from repro.graph.partition import HashPartitioner
from repro.memstore.store import PartitionedStore
from repro.parallel.engine import ParallelSampler

from harness import Workload
from spans import span
from workloads import common

#: Batches of the workers=0 run that ``parallel.inline_ratio`` divides by.
INLINE_BATCHES = 300
#: Batches compared bit for bit against workers=0.
PARITY_BATCHES = 8


def _shared_blocks() -> set:
    """Names of the shared blocks that exist right now.

    ``repro.parallel.shm`` backs a block with a POSIX segment (Python
    names them ``psm_*`` under /dev/shm) or with a ``repro-plane-*``
    temp directory when /dev/shm is unusable.
    """
    found = set()
    for directory, prefix in (("/dev/shm", "psm_"), (tempfile.gettempdir(), "repro-plane-")):
        if os.path.isdir(directory):
            found.update(
                os.path.join(directory, name)
                for name in os.listdir(directory)
                if name.startswith(prefix)
            )
    return found


class SampleSharded(Workload):
    """The sample_wide sampler contract used differently: small batches where
    the shm/queue round trip in parallel dominates and the memstore gather
    is small."""

    NAME = "sample_sharded"
    ITEM = "roots"
    OP = "batch of 64 roots, fanouts (4,3), with attributes, submit+collect over 2 workers"
    WORKERS = 2
    LAYERS = {
        "parallel.submit_s": ("parallel.submit", "total"),
        "parallel.collect_s": ("parallel.collect", "total"),
        # collect minus the coordinator-side attribute gather: waiting
        # for the slower shard, plus the merge.
        "parallel.collect_wait_s": ("parallel.collect", "self"),
        "memstore.attributes_batch_s": ("memstore.get_attributes_batch", "self"),
    }
    SETUP_LAYERS = {
        "graph.build_s": ("graph.build", "total"),
        "parallel.pool_start_s": ("parallel.pool_start", "total"),
    }

    FANOUTS = (4, 3)

    def setup(self, tracer):
        self.nodes, self.roots, self.batches, warm_batches = (
            (2000, 16, 3, 3) if self.smoke else (20000, 64, 25, 200)
        )
        self.blocks_before = _shared_blocks()
        self.graph = common.ll_graph(self.seed, self.nodes, tracer)
        self.partitioner = HashPartitioner(common.PARTITIONS)
        self.store = PartitionedStore(self.graph, self.partitioner)
        self.engine = self._engine(self.store, self.WORKERS)
        with span(tracer, "parallel.pool_start"):
            # Forks the workers, exports the graph plane, and makes the
            # first round trip through the queues and arenas.
            self.engine.reserve(self.roots, self.FANOUTS)
            self.engine.sample(self.inputs(-1)[0])
        # Freshly forked workers run slow for their first few hundred
        # batches (page faults on the plane and arenas); that is start-up
        # cost, so it is paid here and lands in setup_s.
        for request in self.inputs(-1, warm_batches):
            self.engine.sample(request)
        self.store.reset_trace()

    def _engine(self, store, workers):
        return ParallelSampler(
            store, workers=workers, seed=self.seed, worker_partition=common.WORKER_PARTITION
        )

    def inputs(self, segment, batches=None):
        return common.requests(
            self.seed, segment, batches or self.batches, self.graph.num_nodes, self.roots,
            self.FANOUTS,
        )

    def trace(self, tracer):
        # Shard workers read adjacency from their own stores in their
        # own processes; only the coordinator's gather is visible here.
        common.trace_store(tracer, self.store)
        tracer.wrap(self.engine, "submit", "parallel.submit")
        tracer.wrap(self.engine, "collect", "parallel.collect")

    def segment(self, index, batch):
        times = common.timed_each(self.engine.sample, batch)
        self.attempted += len(batch)
        return len(batch) * self.roots, times

    def snapshot(self):
        self.summary = copy.copy(self.store.summary)

    def outcome(self):
        return common.summary_outcome(self.summary)

    def counted(self, counts, folds):
        return {
            "memstore.attribute_rows": counts.get("memstore.attribute_rows", 0.0),
            "parallel.leaked_segments": float(self.leaked),
        }

    def side_measurements(self, op_times):
        """The same stream at workers=0: what the round trips cost."""
        with self._engine(PartitionedStore(self.graph, self.partitioner), 0) as inline:
            stream = self.inputs(0, INLINE_BATCHES)
            inline.sample(stream[0])
            inline_times = common.timed_each(inline.sample, stream)
        return {
            "parallel.inline_ratio": statistics.median(op_times)
            / statistics.median(inline_times)
        }

    def check(self):
        stream = self.inputs(0, PARITY_BATCHES)
        runs = []
        for workers in (0, self.WORKERS):
            store = PartitionedStore(self.graph, self.partitioner)
            with self._engine(store, workers) as engine:
                runs.append(([engine.sample(request) for request in stream], store.summary))
        (inline, inline_summary), (sharded, sharded_summary) = runs
        identical = inline_summary == sharded_summary and all(
            np.array_equal(a, b)
            for x, y in zip(inline, sharded)
            for a, b in zip(x.layers + x.attributes, y.layers + y.attributes)
        )
        # Every pool is closed now; whatever shared block is still there
        # and was not before set-up has leaked.
        self.engine.close()
        self.leaked = len(_shared_blocks() - self.blocks_before)
        return {"bit_identical_to_workers_0": identical, "no_leaked_segments": self.leaked == 0}

    def close(self):
        self.engine.close()
