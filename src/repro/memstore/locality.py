"""Locality-preserving graph layout: renumbering + block partitioning.

The source paper's Figure 2 and "Exploring Memory Access Patterns for
Graph Processing Accelerators" (PAPERS.md) both conclude that the
sampler wall is memory locality, not FLOPs: hop frontiers scatter over
the CSR and attribute arrays, so every gather is a random walk through
DRAM. This module attacks the layout side:

* :func:`locality_order` — a degree-aware renumbering: nodes are
  stably ordered by (partition, descending degree), so every
  partition's nodes become one contiguous ID block with its hottest
  (highest-degree, hence most-sampled) nodes packed at the front.
* :func:`apply_layout` — physically permutes the CSR + attribute
  arrays into that order and returns a :class:`Relabeling` that maps
  original IDs to internal ones and back. Callers keep speaking
  original IDs; the store carries the relabeling and maps at its
  boundary, and everything behind it runs in internal space.
* :class:`BlockPartitioner` — ownership over the contiguous ID blocks
  (a searchsorted over ``num_partitions + 1`` bounds), replacing the
  hash scatter while preserving the partition assignment the ordering
  was derived from.
* :func:`build_locality_layout` — the one-call bundle: derive an
  assignment (LDG by default, so partition crossings genuinely drop
  versus the hash baseline), renumber, and return graph + partitioner
  + relabeling, all three of which ``PartitionedStore`` takes.

The win is measured, not asserted: ``PartitionedStore`` stores built
with ``track_locality=True`` account every batched gather's
contiguous-run structure in ``AccessSummary`` (``gather_runs`` /
``gather_span_bytes``), and ``tests/test_memstore_locality.py``
compares the before/after.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from repro.errors import ConfigurationError, GraphError, PartitionError
from repro.graph.csr import CSRGraph
from repro.graph.partition import (
    HashPartitioner,
    LdgPartitioner,
    Partitioner,
    RangePartitioner,
)

#: Assignment methods build_locality_layout can derive block bounds from.
LAYOUT_METHODS = ("ldg", "hash", "range")


@dataclass(frozen=True)
class Relabeling:
    """Bijection between original node IDs and internal (layout) IDs.

    ``to_internal_map[original] == internal`` and
    ``to_original_map[internal] == original``. The store that holds the
    renumbered graph carries it; samplers map roots in and sampled
    layers out through the store, so callers never see internal IDs.
    """

    to_internal_map: np.ndarray
    to_original_map: np.ndarray

    def __post_init__(self) -> None:
        fwd = np.asarray(self.to_internal_map, dtype=np.int64)
        rev = np.asarray(self.to_original_map, dtype=np.int64)
        if fwd.ndim != 1 or rev.shape != fwd.shape:
            raise GraphError(
                "relabeling maps must be 1-D arrays of the same length"
            )
        if not np.array_equal(rev[fwd], np.arange(fwd.size, dtype=np.int64)):
            raise GraphError("relabeling maps are not inverse permutations")
        object.__setattr__(self, "to_internal_map", fwd)
        object.__setattr__(self, "to_original_map", rev)

    @property
    def num_nodes(self) -> int:
        return int(self.to_internal_map.size)

    def to_internal(self, nodes: Union[int, Sequence[int], np.ndarray]):
        """Map original IDs (any shape) into internal layout IDs."""
        nodes = np.asarray(nodes, dtype=np.int64)
        if nodes.size and (
            nodes.min() < 0 or nodes.max() >= self.num_nodes
        ):
            raise GraphError(
                f"node IDs outside [0, {self.num_nodes}) cannot be relabeled"
            )
        return self.to_internal_map[nodes]

    def to_original(self, nodes: Union[int, Sequence[int], np.ndarray]):
        """Map internal layout IDs (any shape) back to original IDs.

        Internal IDs come from the relabeled graph itself, so they are
        in range by construction; this is the unchecked hot-path twin
        of :meth:`to_internal`.
        """
        return self.to_original_map[np.asarray(nodes, dtype=np.int64)]

    @classmethod
    def identity(cls, num_nodes: int) -> "Relabeling":
        ids = np.arange(num_nodes, dtype=np.int64)
        return cls(ids, ids.copy())


class BlockPartitioner(Partitioner):
    """Ownership over contiguous ID blocks: ``bounds[p] <= id < bounds[p+1]``.

    The layout packs each partition's nodes into one ID block, so
    ownership collapses to a searchsorted over ``num_partitions + 1``
    bounds — and, unlike hashing, ID-adjacent nodes share an owner.
    """

    def __init__(self, bounds: Sequence[int]) -> None:
        bounds = np.asarray(bounds, dtype=np.int64)
        if bounds.ndim != 1 or bounds.size < 2:
            raise PartitionError(
                "bounds must be a 1-D array of num_partitions + 1 offsets"
            )
        if bounds[0] != 0 or np.any(np.diff(bounds) < 0):
            raise PartitionError("bounds must start at 0 and be non-decreasing")
        super().__init__(int(bounds.size - 1))
        self.bounds = bounds
        self.num_nodes = int(bounds[-1])

    def partition_of(self, nodes: Sequence[int]) -> np.ndarray:
        nodes = np.asarray(nodes, dtype=np.int64)
        if nodes.size and (nodes.min() < 0 or nodes.max() >= self.num_nodes):
            raise PartitionError("node batch contains IDs outside [0, num_nodes)")
        return np.searchsorted(self.bounds, nodes, side="right") - 1

    def partition_sizes(self) -> np.ndarray:
        return np.diff(self.bounds)


def locality_order(graph: CSRGraph, assignment: np.ndarray) -> np.ndarray:
    """Original node IDs in internal-ID order: partition blocks, BFS inside.

    Every partition becomes one contiguous ID block. Within a block,
    nodes are placed in breadth-first order from degree-descending
    seeds: when a node is placed, its not-yet-placed same-partition
    neighbors take the next consecutive IDs. Hop expansion gathers
    exactly a node's neighbor set, so after this renumbering those
    gathers land on contiguous array runs instead of a random scatter —
    the access pattern the paper's Figure 2 blames for the sampling
    wall. Deterministic: seeds break degree ties by original ID, and
    neighbors enqueue in adjacency order.
    """
    assignment = np.asarray(assignment, dtype=np.int64)
    if assignment.shape != (graph.num_nodes,):
        raise PartitionError(
            f"assignment must have one entry per node, got shape "
            f"{assignment.shape} for {graph.num_nodes} nodes"
        )
    n = graph.num_nodes
    degrees = graph.degrees()
    order = np.empty(n, dtype=np.int64)
    visited = np.zeros(n, dtype=bool)
    pos = 0
    num_partitions = int(assignment.max()) + 1 if n else 0
    for part in range(num_partitions):
        members = np.flatnonzero(assignment == part)
        seeds = members[np.argsort(-degrees[members], kind="stable")]
        queue: deque = deque()
        for seed in seeds:
            if visited[seed]:
                continue
            visited[seed] = True
            queue.append(int(seed))
            while queue:
                v = queue.popleft()
                order[pos] = v
                pos += 1
                neighbors = graph.neighbors(v)
                fresh = neighbors[
                    ~visited[neighbors] & (assignment[neighbors] == part)
                ]
                if fresh.size:
                    # Parallel edges can repeat a neighbor; keep the
                    # first occurrence (adjacency order).
                    _, first = np.unique(fresh, return_index=True)
                    fresh = fresh[np.sort(first)]
                    visited[fresh] = True
                    queue.extend(int(u) for u in fresh)
    return order


def apply_layout(graph: CSRGraph, order: np.ndarray):
    """Physically permute a graph into ``order``; returns (graph, relabeling).

    ``order[internal] == original``. Adjacency lists keep their
    original within-node order (only the IDs are rewritten), and node /
    edge attributes move with their rows, so the relabeled graph is the
    same graph under a bijection — samples drawn from it map back to
    the original ID space exactly.
    """
    order = np.asarray(order, dtype=np.int64)
    n = graph.num_nodes
    if graph.num_dst_nodes != n:
        raise ConfigurationError(
            "locality layout requires a homogeneous graph "
            "(num_dst_nodes == num_nodes); bipartite relations keep "
            "their original layout"
        )
    if order.shape != (n,):
        raise GraphError(
            f"order must be a permutation of {n} node IDs, got shape {order.shape}"
        )
    old_to_new = np.empty(n, dtype=np.int64)
    old_to_new[order] = np.arange(n, dtype=np.int64)
    degrees = graph.degrees()[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    # Gather every adjacency block in internal order, then rewrite the
    # neighbor IDs into internal space.
    starts = graph.indptr[order]
    positions = np.repeat(starts - indptr[:-1], degrees) + np.arange(
        int(indptr[-1]), dtype=np.int64
    )
    indices = old_to_new[graph.indices[positions]]
    node_attr = None if graph.node_attr is None else graph.node_attr[order]
    edge_attr = None if graph.edge_attr is None else graph.edge_attr[positions]
    relabeled = CSRGraph(indptr, indices, node_attr=node_attr, edge_attr=edge_attr)
    relabeling = Relabeling(old_to_new, order.copy())
    return relabeled, relabeling


@dataclass(frozen=True)
class LocalityLayout:
    """A relabeled graph plus the partitioner and ID bijection for it."""

    graph: CSRGraph
    partitioner: BlockPartitioner
    relabeling: Relabeling
    method: str


def build_locality_layout(
    graph: CSRGraph, num_partitions: int, method: str = "ldg"
) -> LocalityLayout:
    """Derive an assignment, renumber the graph, return the bundle.

    ``method`` picks the partition assignment the blocks are built
    from: ``"ldg"`` (default) streams Linear Deterministic Greedy for
    genuinely fewer edge-cut crossings than hashing; ``"hash"`` keeps
    the hash assignment (isolating the pure renumbering effect);
    ``"range"`` blocks by original ID ranges.
    """
    if method not in LAYOUT_METHODS:
        raise ConfigurationError(
            f"unknown layout method {method!r}; expected one of {LAYOUT_METHODS}"
        )
    if method == "ldg":
        base: Partitioner = LdgPartitioner(num_partitions, graph)
    elif method == "hash":
        base = HashPartitioner(num_partitions)
    else:
        base = RangePartitioner(num_partitions, graph.num_nodes)
    assignment = base.partition_of(np.arange(graph.num_nodes, dtype=np.int64))
    order = locality_order(graph, assignment)
    relabeled, relabeling = apply_layout(graph, order)
    counts = np.bincount(assignment, minlength=num_partitions)
    bounds = np.zeros(num_partitions + 1, dtype=np.int64)
    np.cumsum(counts, out=bounds[1:])
    return LocalityLayout(
        graph=relabeled,
        partitioner=BlockPartitioner(bounds),
        relabeling=relabeling,
        method=method,
    )
