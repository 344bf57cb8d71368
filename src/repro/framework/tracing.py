"""Access-pattern characterization (Figure 2c).

Runs the software sampler over a dataset instance and reads the
structure-vs-attribute access mix off ``store.summary`` (the aggregate
counters; it never turns on the per-access ``store.tracing`` list) —
the paper's finding is that ~48% of accesses (by count) are
fine-grained indirect structure accesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.framework.requests import SampleRequest
from repro.framework.sampler import MultiHopSampler
from repro.graph.csr import CSRGraph
from repro.graph.partition import HashPartitioner
from repro.memstore.store import AccessSummary, PartitionedStore


@dataclass(frozen=True)
class AccessMixReport:
    """Access-mix characterization for one dataset instance."""

    name: str
    structure_count_fraction: float
    structure_bytes_fraction: float
    remote_count_fraction: float
    mean_structure_bytes: float
    mean_attribute_bytes: float
    summary: AccessSummary


def characterize_access_mix(
    graph: CSRGraph,
    name: str = "",
    batch_size: int = 64,
    num_batches: int = 4,
    fanouts: Tuple[int, ...] = (10, 10),
    num_partitions: int = 4,
    seed: int = 0,
    worker_partition: Optional[int] = 0,
) -> AccessMixReport:
    """Sample ``num_batches`` mini-batches and report the access mix."""
    if batch_size <= 0 or num_batches <= 0:
        raise ConfigurationError("batch_size and num_batches must be positive")
    store = PartitionedStore(graph, HashPartitioner(num_partitions))
    sampler = MultiHopSampler(store, seed=seed, worker_partition=worker_partition)
    rng = np.random.default_rng(seed)
    for _ in range(num_batches):
        roots = rng.integers(0, graph.num_nodes, size=batch_size, dtype=np.int64)
        sampler.sample(SampleRequest(roots=roots, fanouts=fanouts))
    summary = store.summary
    structure_bytes_fraction = (
        summary.structure_bytes / summary.total_bytes if summary.total_bytes else 0.0
    )
    mean_struct = (
        summary.structure_bytes / summary.structure_count
        if summary.structure_count
        else 0.0
    )
    mean_attr = (
        summary.attribute_bytes / summary.attribute_count
        if summary.attribute_count
        else 0.0
    )
    return AccessMixReport(
        name=name or "graph",
        structure_count_fraction=summary.structure_count_fraction,
        structure_bytes_fraction=structure_bytes_fraction,
        remote_count_fraction=summary.remote_count_fraction,
        mean_structure_bytes=mean_struct,
        mean_attribute_bytes=mean_attr,
        summary=summary,
    )
