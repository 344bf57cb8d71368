#!/usr/bin/env python3
"""End-to-end LSD-GNN: sampling -> graphSAGE -> DSSM, both samplers.

Reproduces the Tech-2 accuracy-parity experiment at small scale: train
a graphSAGE classifier on a synthetic PPI-like multi-label task with
the conventional uniform sampler and with the hardware's streaming
step-based sampler, then train a DSSM link-prediction head on learned
embeddings. Ends with the Figure 3 stage breakdown.

Asserts Tech-2 parity (both micro-F1 above 0.7, within 0.08 of each
other) and that the DSSM ranks the positive item first more often than
chance (1 in 6).

Run:  python examples/end_to_end_gnn.py
"""

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.partition import HashPartitioner
from repro.gnn.e2e import EndToEndModel
from repro.gnn.metrics import hits_at_k
from repro.gnn.models import DSSM
from repro.gnn.pipeline import PipelinedTrainer
from repro.gnn.train import link_prediction_loss
from repro.memstore.store import PartitionedStore

#: One positive and five negative items per query.
NEGATIVES = 5


def make_ppi_like(num_nodes=400, num_labels=5, seed=0):
    """Community graph with noisy one-hot attributes (PPI stand-in)."""
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


def make_classifier(graph, labels, sampling_method, seed=0):
    """graphSAGE on the store's sampled node attributes."""
    return PipelinedTrainer(
        PartitionedStore(graph, HashPartitioner(2)),
        labels,
        (5,),
        hidden_dim=16,
        lr=3.0,
        seed=seed,
        batch_size=64,
        sampling_method=sampling_method,
        features="attributes",
    )


def train_f1(trainer, num_nodes):
    """Train on the first 300 nodes, return micro-F1 on the rest."""
    trainer.train(np.arange(300), epochs=6)
    return trainer.evaluate(np.arange(300, num_nodes))


def train_link_prediction(trainer, graph, seed=0):
    """DSSM on top of frozen graphSAGE embeddings."""
    rng = np.random.default_rng(seed)
    model = DSSM(16, (16, 16), seed=seed)
    sources = rng.integers(0, graph.num_nodes, 64)
    queries = trainer.embed(sources)
    positives = queries + 0.05 * rng.standard_normal(queries.shape).astype(np.float32)
    negatives = rng.standard_normal((64, NEGATIVES, 16)).astype(np.float32)
    items = np.concatenate([positives[:, None, :], negatives], axis=1)
    loss = float("nan")
    for _ in range(80):
        scores = model.forward(queries, items)
        loss, grad = link_prediction_loss(scores)
        model.backward(grad)
        model.step(0.1)
    scores = model.forward(queries, items)
    return loss, hits_at_k(scores, 1)


def main():
    graph, labels = make_ppi_like()
    print("=== Tech-2 accuracy parity (paper: 0.548 vs 0.549 on PPI) ===")
    with make_classifier(graph, labels, "streaming") as streaming:
        streaming_f1 = train_f1(streaming, graph.num_nodes)
    with make_classifier(graph, labels, "uniform") as trainer:
        uniform_f1 = train_f1(trainer, graph.num_nodes)
        print(f"uniform sampler   micro-F1: {uniform_f1:.3f}")
        print(f"streaming sampler micro-F1: {streaming_f1:.3f}")
        print(f"difference: {abs(uniform_f1 - streaming_f1):.3f}\n")
        assert uniform_f1 > 0.7 and streaming_f1 > 0.7
        assert abs(uniform_f1 - streaming_f1) < 0.08

        print("=== DSSM end model (Table 3 application) ===")
        loss, hits = train_link_prediction(trainer, graph)
    print(f"link-prediction loss {loss:.3f}, hits@1 {hits:.2f}\n")
    assert hits > 1 / (1 + NEGATIVES)

    print("=== Figure 3 stage breakdown (full-scale model) ===")
    model = EndToEndModel()
    for phase, training in (("training", True), ("inference", False)):
        breakdown = model.breakdown(training)
        print(
            f"{phase:<10} sampling {100 * breakdown.sampling_fraction:5.1f}%  "
            f"embedding {100 * breakdown.embedding_s / breakdown.total_s:5.1f}%  "
            f"NN {100 * breakdown.nn_s / breakdown.total_s:5.1f}%"
        )
    print(f"graph storage / model storage: {model.storage_ratio():.1e}x")


if __name__ == "__main__":
    main()
