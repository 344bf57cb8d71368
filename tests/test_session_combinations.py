"""Generated ``GnnSession`` combination matrix.

Every ``layout`` sits behind one sampler contract, and the sharded
engine (``ParallelSampler``, built beside a session over its store)
keeps that contract at every worker count. Every (layout, workers)
pair is run over one request stream and held to the bars the single
features already meet: bit-identity across worker counts,
original IDs in and out, replay parity with the per-node walk, and
equal training digests. The one refusal left in
``GnnSession.__init__`` (a ``DynamicGraph`` runs the inline software
sampler only) is checked argument by argument at the end.
"""

import copy
import itertools
from collections import namedtuple

import numpy as np
import pytest

from repro.api import GnnSession
from repro.errors import ConfigurationError
from repro.framework.replay import replay_reference
from repro.framework.requests import SampleRequest
from repro.graph.datasets import instantiate_dataset
from repro.graph.dynamic import DynamicGraph
from repro.memstore.faults import FaultInjector, ReliableReadPath
from repro.memstore.locality import build_locality_layout
from repro.memstore.replication import ReplicaPlacement
from repro.memstore.retry import RetryPolicy
from repro.gnn.pipeline import PipelinedTrainer
from repro.memstore.store import PartitionedStore
from repro.parallel import ParallelSampler

NUM_NODES = 600
PARTITIONS = 4
SEED = 3
FANOUTS = (4, 3)
NEGATIVE_RATE = 3

LAYOUTS = (None, "ldg", "hash", "range")
WORKERS = (0, 1, 2)


@pytest.fixture(scope="module")
def graph():
    return instantiate_dataset("ss", max_nodes=NUM_NODES, seed=0)


def root_batches(graph):
    rng = np.random.default_rng(1)
    return [rng.integers(0, graph.num_nodes, size=size) for size in (48, 17)]


def positive_pairs(graph):
    sources = np.random.default_rng(2).integers(0, graph.num_nodes, size=10)
    # A repeated source: negative sampling reads its adjacency twice.
    sources[-1] = sources[0]
    return np.stack([sources, (sources + 1) % graph.num_nodes], axis=1)


def open_session(graph, layout, workers):
    """A session whose sampler is the sharded engine at ``workers``.

    A session samples inline with ``MultiHopSampler`` (its own RNG
    stream), so for the worker-count comparison the engine — at
    ``workers=0`` the same shard tasks with no processes — takes its
    place over the session's own store; ``session.close()`` releases
    its pool.
    """
    session = GnnSession(graph, num_partitions=PARTITIONS, seed=SEED, layout=layout)
    session.sampler = ParallelSampler(session.store, workers=workers, seed=SEED)
    return session


Run = namedtuple("Run", "results negatives summary")


def observe(session, graph):
    """Everything a caller can see of one run of the fixed stream."""
    results = [session.sample(roots, FANOUTS) for roots in root_batches(graph)]
    negatives = session.negative_sample(positive_pairs(graph), NEGATIVE_RATE)
    return Run(results, negatives, copy.copy(session.store.summary))


@pytest.fixture(scope="module")
def matrix(graph):
    """``(layout, workers) -> observe(...)`` for every pair."""
    runs = {}
    for key in itertools.product(LAYOUTS, WORKERS):
        with open_session(graph, *key) as session:
            runs[key] = observe(session, graph)
    return runs


def assert_same_values(mine, theirs):
    for a, b in zip(mine.results, theirs.results):
        for x, y in zip(a.layers + a.attributes, b.layers + b.attributes):
            np.testing.assert_array_equal(x, y)
    np.testing.assert_array_equal(mine.negatives, theirs.negatives)


@pytest.mark.parametrize("layout", LAYOUTS)
class TestEveryTuple:
    def test_worker_counts_are_bit_identical(self, matrix, layout):
        reference = matrix[layout, 0]
        for workers in WORKERS[1:]:
            run = matrix[layout, workers]
            assert_same_values(reference, run)
            assert run.summary == reference.summary, workers

    @pytest.mark.parametrize("workers", (0, 2))
    def test_original_ids_in_and_out(self, graph, matrix, layout, workers):
        if workers:
            run = matrix[layout, workers]
        else:
            # The inline sampler a default session really runs.
            with GnnSession(
                graph, num_partitions=PARTITIONS, seed=SEED, layout=layout
            ) as session:
                run = observe(session, graph)
        for roots, result in zip(root_batches(graph), run.results):
            np.testing.assert_array_equal(result.layers[0], roots)
            # Every hop-1 pick is a neighbour of its root (or the
            # zero-degree self-loop) in the ORIGINAL graph.
            for root, picks in zip(roots, result.layers[1]):
                allowed = set(graph.neighbors(int(root)).tolist()) | {int(root)}
                assert set(picks.tolist()) <= allowed
            for layer, rows in zip(result.layers, result.attributes):
                np.testing.assert_array_equal(rows, graph.node_attr[layer])
        for (source, _), row in zip(positive_pairs(graph), run.negatives):
            assert not set(row.tolist()) & set(graph.neighbors(int(source)).tolist())


@pytest.mark.parametrize("worker_partition", (None, 0))
@pytest.mark.parametrize("workers", (0, 2))
def test_replay_parity_through_layout_and_workers(graph, workers, worker_partition):
    """The per-node walk charges a fresh layout store exactly what the
    shard workers + coordinator charged theirs for the same layers."""
    built = build_locality_layout(graph, PARTITIONS)

    def layout_store():
        return PartitionedStore(
            built.graph, built.partitioner, relabeling=built.relabeling
        )

    request = SampleRequest(roots=root_batches(graph)[0], fanouts=FANOUTS)
    store = layout_store()
    with ParallelSampler(
        store, workers=workers, seed=SEED, worker_partition=worker_partition
    ) as engine:
        result = engine.sample(request)
    fresh = layout_store()
    replay_reference(result, request, fresh, worker_partition=worker_partition)
    assert store.summary == fresh.summary


@pytest.mark.parametrize("layout", LAYOUTS)
def test_training_is_worker_count_invariant(graph, layout):
    labels = (
        np.random.default_rng(4).random((graph.num_nodes, 3)) < 0.3
    ).astype(np.float32)
    roots = np.arange(0, graph.num_nodes, 5)

    def layout_store():
        return GnnSession(
            graph, num_partitions=PARTITIONS, seed=SEED, layout=layout
        ).store

    reports = []
    for workers in (0, 2):
        with PipelinedTrainer(
            layout_store(), labels, FANOUTS, seed=SEED, workers=workers
        ) as trainer:
            reports.append(trainer.train(roots, epochs=2))
    with GnnSession(
        graph, num_partitions=PARTITIONS, seed=SEED, layout=layout
    ) as session:
        reports.append(session.train(labels, FANOUTS, roots=roots, epochs=2))
    assert reports[0].epoch_losses == reports[1].epoch_losses == reports[2].epoch_losses
    assert reports[0].weights_digest == reports[1].weights_digest
    assert reports[0].weights_digest == reports[2].weights_digest
    assert np.isfinite(reports[0].final_loss)


def test_composed_session_serves(graph):
    """A layout session behind the serving gateway, its sampler the
    2-worker engine."""
    with open_session(graph, "ldg", 2) as session:
        report = session.serve(duration_s=0.05, include_hardware=False)
    assert report.completed > 0
    assert report.offered == report.completed + report.shed


# ------------------------------------------------------- the one refusal
def refused_with_dynamic():
    """One value per argument a ``DynamicGraph`` session refuses."""
    placement = ReplicaPlacement(num_partitions=PARTITIONS, replication_factor=1)
    path = ReliableReadPath(
        placement, RetryPolicy(hedge=False), FaultInjector(), seed=0
    )
    return {"layout": "ldg", "reliability": path}


def named_by_refusal(graph, **arguments):
    """The arguments the ``DynamicGraph`` refusal names, in its order."""
    with pytest.raises(ConfigurationError, match="inline software sampler") as info:
        GnnSession(DynamicGraph(graph), num_partitions=PARTITIONS, **arguments)
    return str(info.value).split(" cannot be combined")[0].split(", ")


@pytest.mark.parametrize("argument", ("layout", "reliability"))
def test_dynamic_graph_refuses(graph, argument):
    value = refused_with_dynamic()[argument]
    assert named_by_refusal(graph, **{argument: value}) == [argument]


def test_dynamic_graph_refusal_names_every_argument(graph):
    arguments = refused_with_dynamic()
    assert named_by_refusal(graph, **arguments) == list(arguments)
