"""Generated ``GnnSession`` combination matrix.

The sharded engine (``ParallelSampler``, built beside a session over
its store) keeps the session's sampler contract at every worker count,
and a ``DynamicGraph`` session with no mutations is its static twin.
Each is run over one request stream and held to the bars the single
features already meet: bit-identity across worker counts and graph
kinds, real edges and attribute rows, replay parity with the per-node
walk, and equal training digests. The one refusal left in
``GnnSession.__init__`` (a ``DynamicGraph`` runs the inline software
sampler only) is checked at the end.
"""

import copy
from collections import namedtuple

import numpy as np
import pytest

from repro.api import GnnSession
from repro.errors import ConfigurationError
from repro.framework.replay import replay_reference
from repro.framework.requests import SampleRequest
from repro.graph.datasets import instantiate_dataset
from repro.graph.dynamic import DynamicGraph
from repro.graph.partition import HashPartitioner
from repro.memstore.faults import FaultInjector, ReliableReadPath
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

WORKERS = (0, 1, 2)


@pytest.fixture(scope="module")
def graph():
    return instantiate_dataset("ss", max_nodes=NUM_NODES, seed=0)


def root_batches(graph):
    rng = np.random.default_rng(1)
    return [rng.integers(0, graph.num_nodes, size=size) for size in (48, 17)]


def plain_store(graph):
    return PartitionedStore(graph, HashPartitioner(PARTITIONS))


def positive_pairs(graph):
    sources = np.random.default_rng(2).integers(0, graph.num_nodes, size=10)
    # A repeated source: negative sampling reads its adjacency twice.
    sources[-1] = sources[0]
    return np.stack([sources, (sources + 1) % graph.num_nodes], axis=1)


def open_session(graph, workers):
    """A session whose sampler is the sharded engine at ``workers``.

    A session samples inline with ``MultiHopSampler`` (its own RNG
    stream), so for the worker-count comparison the engine — at
    ``workers=0`` the same shard tasks with no processes — takes its
    place over the session's own store; ``session.close()`` releases
    its pool.
    """
    session = GnnSession(graph, num_partitions=PARTITIONS, seed=SEED)
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
    """``workers -> observe(...)`` for every worker count."""
    runs = {}
    for workers in WORKERS:
        with open_session(graph, workers) as session:
            runs[workers] = observe(session, graph)
    return runs


def assert_same_values(mine, theirs):
    for a, b in zip(mine.results, theirs.results):
        for x, y in zip(a.layers + a.attributes, b.layers + b.attributes):
            np.testing.assert_array_equal(x, y)
    np.testing.assert_array_equal(mine.negatives, theirs.negatives)


def test_worker_counts_are_bit_identical(matrix):
    reference = matrix[0]
    for workers in WORKERS[1:]:
        run = matrix[workers]
        assert_same_values(reference, run)
        assert run.summary == reference.summary, workers


def test_dynamic_rate_zero_is_its_static_twin(graph):
    """The inline sampler over an unmutated ``DynamicGraph`` returns the
    static session's layers, attributes and negatives, and charges the
    same ``AccessSummary``."""
    runs = []
    for served in (graph, DynamicGraph(graph)):
        with GnnSession(served, num_partitions=PARTITIONS, seed=SEED) as session:
            runs.append(observe(session, graph))
    static, dynamic = runs
    assert_same_values(static, dynamic)
    assert dynamic.summary == static.summary


@pytest.mark.parametrize("workers", (0, 2))
def test_layers_are_real_edges(graph, matrix, workers):
    if workers:
        run = matrix[workers]
    else:
        # The inline sampler a default session really runs.
        with GnnSession(graph, num_partitions=PARTITIONS, seed=SEED) as session:
            run = observe(session, graph)
    for roots, result in zip(root_batches(graph), run.results):
        np.testing.assert_array_equal(result.layers[0], roots)
        # Every hop-1 pick is a neighbour of its root (or the
        # zero-degree self-loop).
        for root, picks in zip(roots, result.layers[1]):
            allowed = set(graph.neighbors(int(root)).tolist()) | {int(root)}
            assert set(picks.tolist()) <= allowed
        for layer, rows in zip(result.layers, result.attributes):
            np.testing.assert_array_equal(rows, graph.node_attr[layer])
    for (source, _), row in zip(positive_pairs(graph), run.negatives):
        assert not set(row.tolist()) & set(graph.neighbors(int(source)).tolist())


@pytest.mark.parametrize("worker_partition", (None, 0))
@pytest.mark.parametrize("workers", (0, 2))
def test_replay_parity_through_workers(graph, workers, worker_partition):
    """The per-node walk charges a fresh store exactly what the shard
    workers + coordinator charged theirs for the same layers."""
    request = SampleRequest(roots=root_batches(graph)[0], fanouts=FANOUTS)
    store = plain_store(graph)
    with ParallelSampler(
        store, workers=workers, seed=SEED, worker_partition=worker_partition
    ) as engine:
        result = engine.sample(request)
    fresh = plain_store(graph)
    replay_reference(result, request, fresh, worker_partition=worker_partition)
    assert store.summary == fresh.summary


def test_training_is_worker_count_invariant(graph):
    labels = (
        np.random.default_rng(4).random((graph.num_nodes, 3)) < 0.3
    ).astype(np.float32)
    roots = np.arange(0, graph.num_nodes, 5)

    reports = []
    for workers in (0, 2):
        with PipelinedTrainer(
            plain_store(graph), labels, FANOUTS, seed=SEED, workers=workers
        ) as trainer:
            reports.append(trainer.train(roots, epochs=2))
    with GnnSession(graph, num_partitions=PARTITIONS, seed=SEED) as session:
        reports.append(session.train(labels, FANOUTS, roots=roots, epochs=2))
    assert reports[0].epoch_losses == reports[1].epoch_losses == reports[2].epoch_losses
    assert reports[0].weights_digest == reports[1].weights_digest
    assert reports[0].weights_digest == reports[2].weights_digest
    assert np.isfinite(reports[0].final_loss)


def test_composed_session_serves(graph):
    """A session behind the serving gateway, its sampler the 2-worker
    engine."""
    with open_session(graph, 2) as session:
        report = session.serve(duration_s=0.05, include_hardware=False)
    assert report.completed > 0
    assert report.offered == report.completed + report.shed


# ------------------------------------------------------- the one refusal
def test_dynamic_graph_refuses_reliability(graph):
    placement = ReplicaPlacement(num_partitions=PARTITIONS, replication_factor=1)
    path = ReliableReadPath(
        placement, RetryPolicy(hedge=False), FaultInjector(), seed=0
    )
    with pytest.raises(ConfigurationError, match="reliability cannot be combined"):
        GnnSession(DynamicGraph(graph), num_partitions=PARTITIONS, reliability=path)
