"""Pieces shared by the workloads that drive the software sampler."""

from __future__ import annotations

from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.framework.requests import SampleRequest
from repro.graph.datasets import instantiate_dataset

from spans import Fold, TimedKernels, Tracer, span

PARTITIONS = 4
#: The sampling worker is co-located with partition 0, so the store
#: attributes accesses as local or remote (the Fig. 2c split).
WORKER_PARTITION = 0

#: Span metrics of every workload whose blocking path runs
#: ``MultiHopSampler.sample`` over a ``PartitionedStore``.
SAMPLER_LAYERS = {
    "memstore.attributes_batch_s": ("memstore.get_attributes_batch", "self"),
    "memstore.neighbors_batch_s": ("memstore.get_neighbors_batch", "self"),
    "framework.sample_self_s": ("framework.sample", "self"),
    "framework.kernels_s": ("framework.kernels", "self"),
}


def ll_graph(seed: int, nodes: int, tracer: Optional[Tracer]):
    """The paper's ``ll`` dataset shape (attr_len 152) at ``nodes`` nodes."""
    with span(tracer, "graph.build"):
        return instantiate_dataset("ll", max_nodes=nodes, seed=seed)


def requests(
    seed: int, segment: int, batches: int, num_nodes: int, roots: int,
    fanouts: Tuple[int, ...],
) -> List[SampleRequest]:
    """The fresh random root batches of one segment (-1 = warm-up)."""
    rng = np.random.default_rng([seed, segment + 1])
    return [
        SampleRequest(
            roots=rng.integers(0, num_nodes, size=roots),
            fanouts=fanouts,
            with_attributes=True,
        )
        for _ in range(batches)
    ]


def timed_each(fn, items) -> List[float]:
    """Call ``fn(item)`` for each item; seconds each call took."""
    times = []
    for item in items:
        start = perf_counter()
        fn(item)
        times.append(perf_counter() - start)
    return times


def _tally_neighbors(counts: Dict[str, float], args: tuple, kwargs: dict, _result: Any) -> None:
    counts["memstore.neighbor_lists"] += len(args[0])


def _tally_attributes(counts: Dict[str, float], args: tuple, kwargs: dict, _result: Any) -> None:
    counts["memstore.attribute_rows"] += len(args[0])


def _tally_positions(counts: Dict[str, float], args: tuple, kwargs: dict, _result: Any) -> None:
    """Frontier positions a request expands and reads, before dedup."""
    request: SampleRequest = args[0]
    layer = int(request.roots.size)
    expanded = read = 0
    for fanout in request.fanouts:
        expanded += layer
        read += layer
        layer *= fanout
    read += layer
    counts["framework.positions"] += expanded + (read if request.with_attributes else 0)


def trace_store(tracer: Tracer, store: Any) -> None:
    tracer.wrap(store, "get_neighbors_batch", "memstore.get_neighbors_batch", _tally_neighbors)
    tracer.wrap(store, "get_attributes_batch", "memstore.get_attributes_batch", _tally_attributes)


def trace_sampler(tracer: Tracer, sampler: Any) -> None:
    """Span ``sampler.sample``, its store's batch reads and its kernels."""
    trace_store(tracer, sampler.store)
    tracer.wrap(sampler, "sample", "framework.sample", _tally_positions)
    tracer.swap(sampler, "kernels", TimedKernels(sampler.kernels, tracer, "framework.kernels"))


def sampler_counts(counts: Dict[str, float], folds: List[Fold]) -> Dict[str, float]:
    """The ``TRACED`` count metrics of a sampler workload."""
    store_ids = counts.get("memstore.neighbor_lists", 0.0) + counts.get(
        "memstore.attribute_rows", 0.0
    )
    durations = [d for fold in folds for d in fold.durations_s.get("framework.sample", ())]
    return {
        "memstore.neighbor_lists": counts.get("memstore.neighbor_lists", 0.0),
        "memstore.attribute_rows": counts.get("memstore.attribute_rows", 0.0),
        "framework.dedup_ratio": store_ids / counts["framework.positions"],
        "framework.batch_p95_ms": 1e3 * float(np.percentile(durations, 95)),
    }


def summary_outcome(summary: Any) -> Dict[str, float]:
    """The accounting-unchanged guard, from an ``AccessSummary``."""
    return {
        "memstore.bytes_total": float(summary.total_bytes),
        "memstore.remote_count_fraction": summary.remote_count_fraction,
    }
