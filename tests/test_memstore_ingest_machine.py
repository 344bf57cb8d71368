"""Stateful check of the ingest store against a dict-of-lists model.

A hypothesis state machine interleaves node and edge appends,
compactions, and pinned and unpinned batch reads of random node
multisets on a :class:`DynamicPartitionedStore`. Every batch read must
return each node's base block followed by its appends in order, and
must charge exactly what a twin store charges when the same reads go
through the per-node ``get_neighbors``, once per occurrence.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.graph.csr import CSRGraph
from repro.graph.dynamic import DynamicGraph
from repro.graph.partition import HashPartitioner
from repro.memstore.ingest import EDGE, NODE, DynamicPartitionedStore, Mutation

BASE_EDGES = [(0, 1), (0, 2), (1, 2), (3, 0), (3, 4), (3, 5)]
#: Small enough that appends also compact inside ``apply``.
COMPACT_THRESHOLD = 7

ids = st.integers(0, 10**6)


def make_store():
    graph = CSRGraph.from_edges(
        6, BASE_EDGES, node_attr=np.arange(12, dtype=np.float32).reshape(6, 2)
    )
    return DynamicPartitionedStore(
        DynamicGraph(graph, compact_threshold=COMPACT_THRESHOLD), HashPartitioner(3)
    )


class IngestMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.model = {v: [d for s, d in BASE_EDGES if s == v] for v in range(6)}
        self.store = make_store()
        self.twin = make_store()

    def apply(self, mutation):
        for store in (self.store, self.twin):
            store.apply([mutation])
        if mutation.kind == NODE:
            new = len(self.model)
            self.model[new] = []
            if mutation.attach_to is not None:
                self.model[new].append(mutation.attach_to)
        else:
            self.model[mutation.src].append(mutation.dst)

    @rule(attach=st.none() | ids)
    def add_node(self, attach):
        if attach is not None:
            attach %= len(self.model)
        self.apply(Mutation(NODE, attach_to=attach))

    @rule(src=ids, dst=ids)
    def add_edge(self, src, dst):
        n = len(self.model)
        self.apply(Mutation(EDGE, src=src % n, dst=dst % n))

    @rule()
    def compact(self):
        for store in (self.store, self.twin):
            store.dynamic.compact()
            store.refresh()

    @rule(
        picks=st.lists(ids, max_size=12),
        partition=st.sampled_from([None, 0, 1, 2]),
        pinned=st.booleans(),
        landing=st.none() | st.tuples(ids, ids),
    )
    def batch_read(self, picks, partition, pinned, landing):
        """Read a node multiset (deduplicated, as the samplers read it).
        A pinned read may have an edge land inside its pin, which the
        read must not see."""
        n = len(self.model)
        unique, counts = np.unique(
            np.asarray([p % n for p in picks], dtype=np.int64), return_counts=True
        )
        expected = {int(v): list(self.model[int(v)]) for v in unique}
        if pinned:
            with self.store.read_view(), self.twin.read_view():
                if landing is not None:
                    mutation = Mutation(EDGE, src=landing[0] % n, dst=landing[1] % n)
                    self.apply(mutation)
                batch = self.store.get_neighbors_batch(unique, partition, counts=counts)
                self.charge_twin(unique, counts, partition)
            assert len(self.store.last_sample_epochs) <= 1
        else:
            batch = self.store.get_neighbors_batch(unique, partition, counts=counts)
            self.charge_twin(unique, counts, partition)
        assert batch.served.all() and batch.fallbacks == 0
        assert batch.offsets[0] == 0 and batch.offsets[-1] == batch.values.size
        for i, node in enumerate(unique):
            assert batch[i].tolist() == expected[int(node)]

    def charge_twin(self, unique, counts, partition):
        for node, count in zip(unique, counts):
            for _ in range(count):
                self.twin.get_neighbors(int(node), partition)

    @invariant()
    def same_charges_as_per_node_reads(self):
        assert self.store.summary == self.twin.summary
        mine, theirs = self.store.ingest_stats, self.twin.ingest_stats
        assert mine.delta_hits == theirs.delta_hits
        assert mine.delta_edges_read == theirs.delta_edges_read


IngestMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=20, deadline=None
)
TestIngestMachine = IngestMachine.TestCase
