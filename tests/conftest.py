"""Figures that more than one test module checks, computed once per session
with the parameters EXPERIMENTS.md reports."""

import numpy as np
import pytest

from repro.graph.csr import CSRGraph
from repro.graph.datasets import instantiate_dataset
from repro.graph.partition import HashPartitioner
from repro.gnn.pipeline import PipelinedTrainer
from repro.memstore.store import PartitionedStore
from repro.perfmodel.poc import POC_SWEEP, poc_vcpu_equivalence, validate_model


@pytest.fixture(scope="session")
def fig14():
    return poc_vcpu_equivalence(max_nodes=8000, batch_size=96)


@pytest.fixture(scope="session")
def fig15():
    graph = instantiate_dataset("ls", max_nodes=8000, seed=0)
    return validate_model(graph, POC_SWEEP, batch_size=48)


def ppi_like_task(seed=0, num_nodes=400, num_labels=5):
    """Community graph with noisy one-hot attributes (a PPI stand-in):
    labels are the community, edges stay inside it."""
    rng = np.random.default_rng(seed)
    communities = rng.integers(0, num_labels, num_nodes)
    attrs = np.eye(num_labels, dtype=np.float32)[communities]
    attrs += 0.3 * rng.standard_normal(attrs.shape).astype(np.float32)
    edges = []
    for node in range(num_nodes):
        same = np.flatnonzero(communities == communities[node])
        for _ in range(6):
            edges.append((node, int(rng.choice(same))))
    graph = CSRGraph.from_edges(num_nodes, edges, node_attr=attrs)
    labels = np.eye(num_labels, dtype=np.int64)[communities]
    return graph, labels


def tech2_micro_f1(sampling_method, seed=0):
    """Held-out micro-F1 of graphSAGE trained on sampled attributes:
    300 training roots, 6 epochs, 100 evaluation roots."""
    graph, labels = ppi_like_task(seed=seed)
    with PipelinedTrainer(
        PartitionedStore(graph, HashPartitioner(2)),
        labels,
        (5,),
        hidden_dim=16,
        lr=3.0,
        seed=seed,
        batch_size=64,
        sampling_method=sampling_method,
        features="attributes",
    ) as trainer:
        trainer.train(np.arange(300), epochs=6)
        return trainer.evaluate(np.arange(300, graph.num_nodes))


@pytest.fixture(scope="session")
def tech2_f1():
    """Tech-2's accuracy pair: ``(uniform, streaming)`` micro-F1."""
    return tech2_micro_f1("uniform"), tech2_micro_f1("streaming")
