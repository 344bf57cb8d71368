"""Stateful check of whole samples over the ingest store.

A hypothesis state machine interleaves ``apply()`` batches, compactions
and ``MultiHopSampler.sample()`` calls on a
:class:`DynamicPartitionedStore`, against a dict-of-lists model. A
sample may have one more batch land inside its pinned read. Every
sample must equal the one a static twin draws from the same RNG state:
a :class:`PartitionedStore` over the model's CSR at the sample's epoch.
The store's append-log counters must equal the model's count of reads
that touched uncompacted appends.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.framework.requests import SampleRequest
from repro.framework.sampler import MultiHopSampler
from repro.graph.csr import CSRGraph
from repro.graph.dynamic import DynamicGraph
from repro.graph.partition import HashPartitioner
from repro.memstore.ingest import EDGE, NODE, DynamicPartitionedStore, Mutation
from repro.memstore.store import PartitionedStore

BASE_EDGES = [(0, 1), (0, 2), (1, 2), (3, 0), (3, 4), (3, 5), (5, 5)]
ATTR_LEN = 2
PARTITIONS = 3
WORKER_PARTITION = 0
#: Small enough that ``apply`` also compacts mid-batch.
COMPACT_THRESHOLD = 9

ids = st.integers(0, 10**6)
batches = st.lists(
    st.one_of(
        st.tuples(st.just(EDGE), ids, ids),
        st.tuples(st.just(NODE), st.none() | ids, st.just(0)),
    ),
    min_size=1,
    max_size=8,
)


class LandingStore(DynamicPartitionedStore):
    """Applies ``landing`` at its first batch neighbor read: a batch
    that arrives while a sample holds its pin."""

    landing = None

    def get_neighbors_batch(self, *args, **kwargs):
        if self.landing is not None:
            landing, self.landing = self.landing, None
            self.apply(landing)
        return super().get_neighbors_batch(*args, **kwargs)


class Model:
    """Adjacency, attribute rows and the uncompacted-append counts that
    the store should hold after the same mutations."""

    def __init__(self):
        self.adjacency = {v: [d for s, d in BASE_EDGES if s == v] for v in range(6)}
        self.rows = list(np.arange(6 * ATTR_LEN, dtype=np.float32).reshape(6, ATTR_LEN))
        self.appended = {}

    def add_edge(self, src, dst):
        self.adjacency[src].append(dst)
        self.appended[src] = self.appended.get(src, 0) + 1
        if sum(self.appended.values()) >= COMPACT_THRESHOLD:
            self.appended = {}

    def apply(self, batch):
        for mutation in batch:
            if mutation.kind == NODE:
                new = len(self.adjacency)
                self.adjacency[new] = []
                self.rows.append(np.zeros(ATTR_LEN, dtype=np.float32))
                if mutation.attach_to is not None:
                    self.add_edge(new, mutation.attach_to)
            else:
                self.add_edge(mutation.src, mutation.dst)

    def graph(self):
        """The model's adjacency as a static CSR graph."""
        n = len(self.adjacency)
        edges = [(v, d) for v in range(n) for d in self.adjacency[v]]
        return CSRGraph.from_edges(
            n, np.asarray(edges, dtype=np.int64), node_attr=np.stack(self.rows)
        )


def make_store():
    graph = Model().graph()
    return LandingStore(
        DynamicGraph(graph, compact_threshold=COMPACT_THRESHOLD),
        HashPartitioner(PARTITIONS),
    )


class SamplerMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.model = Model()
        self.store = make_store()
        self.sampler = MultiHopSampler(
            self.store, seed=0, worker_partition=WORKER_PARTITION
        )
        self.delta_hits = self.delta_edges_read = 0

    def as_batch(self, drawn):
        """Drawn tuples as mutations over the model's current node IDs."""
        batch = []
        n = len(self.model.adjacency)
        for kind, a, b in drawn:
            if kind == NODE:
                batch.append(Mutation(NODE, attach_to=None if a is None else a % n))
                n += 1
            else:
                batch.append(Mutation(EDGE, src=a % n, dst=b % n))
        return batch

    @rule(drawn=batches)
    def apply(self, drawn):
        batch = self.as_batch(drawn)
        assert self.store.apply(batch) == len(batch)
        self.model.apply(batch)

    @rule()
    def compact(self):
        self.store.dynamic.compact()
        self.store.refresh()
        self.model.appended = {}

    @rule(
        picks=st.lists(ids, min_size=1, max_size=6),
        fanouts=st.lists(st.integers(1, 3), min_size=1, max_size=2),
        landing=st.none() | batches,
    )
    def sample(self, picks, fanouts, landing):
        n = len(self.model.adjacency)
        request = SampleRequest(
            roots=np.asarray([p % n for p in picks], dtype=np.int64),
            fanouts=tuple(fanouts),
            with_attributes=True,
        )
        twin = MultiHopSampler(
            PartitionedStore(self.model.graph(), HashPartitioner(PARTITIONS)),
            worker_partition=WORKER_PARTITION,
        )
        twin.rng.bit_generator.state = self.sampler.rng.bit_generator.state
        appended = dict(self.model.appended)
        landed = None if landing is None else self.as_batch(landing)
        self.store.landing = landed
        result = self.sampler.sample(request)
        expected = twin.sample(request)
        if landed is not None:
            assert self.store.landing is None
            self.model.apply(landed)
        assert len(self.store.last_sample_epochs) == 1
        for mine, theirs in zip(result.layers, expected.layers):
            np.testing.assert_array_equal(mine, theirs)
        for mine, theirs in zip(result.attributes, expected.attributes):
            np.testing.assert_array_equal(mine, theirs)
        assert (
            self.sampler.rng.bit_generator.state == twin.rng.bit_generator.state
        )
        for parents in result.layers[:-1]:
            reads = np.asarray([appended.get(int(v), 0) for v in parents.reshape(-1)])
            self.delta_hits += int((reads > 0).sum())
            self.delta_edges_read += int(reads.sum())

    @invariant()
    def append_counters_match_the_model(self):
        stats = self.store.ingest_stats
        assert stats.delta_hits == self.delta_hits
        assert stats.delta_edges_read == self.delta_edges_read


SamplerMachine.TestCase.settings = settings(
    max_examples=30, stateful_step_count=15, deadline=None
)
TestSamplerMachine = SamplerMachine.TestCase
