"""Compressed sparse row (CSR) graph with node and edge attributes.

This is the storage format the paper's distributed store keeps in memory:
a contiguous ``indptr`` array, a neighbor ``indices`` array, an optional
per-edge weight array, and a dense per-node attribute matrix. Graph
structure accesses (indptr/indices) are the fine-grained 8-64B indirect
accesses the paper characterizes in Figure 2(c); attribute rows are the
larger transfers.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.errors import GraphError


class CSRGraph:
    """Directed graph in CSR form with optional attributes.

    Parameters
    ----------
    indptr:
        ``int64`` array of length ``num_nodes + 1``; ``indptr[v]`` is the
        offset of node ``v``'s adjacency list in ``indices``.
    indices:
        ``int64`` array of neighbor IDs, length ``num_edges``.
    node_attr:
        Optional ``float32`` matrix of shape ``(num_nodes, attr_len)``.
    edge_attr:
        Optional ``float32`` array of per-edge weights/attributes with
        first dimension ``num_edges``.
    num_dst_nodes:
        Size of the destination ID space. Defaults to ``num_nodes``
        (homogeneous graph); bipartite relations (e.g. user -> item in
        a heterogeneous graph) set it to the destination type's count.
    """

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        node_attr: Optional[np.ndarray] = None,
        edge_attr: Optional[np.ndarray] = None,
        num_dst_nodes: Optional[int] = None,
    ) -> None:
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self._num_dst_nodes = num_dst_nodes
        self.node_attr = (
            None if node_attr is None else np.ascontiguousarray(node_attr, dtype=np.float32)
        )
        self.edge_attr = (
            None if edge_attr is None else np.ascontiguousarray(edge_attr, dtype=np.float32)
        )
        self._validate()

    def _validate(self) -> None:
        if self.indptr.ndim != 1 or self.indptr.size < 1:
            raise GraphError("indptr must be a 1-D array of length num_nodes + 1")
        if self.indptr[0] != 0:
            raise GraphError(f"indptr must start at 0, got {self.indptr[0]}")
        if np.any(np.diff(self.indptr) < 0):
            raise GraphError("indptr must be non-decreasing")
        if self.indptr[-1] != self.indices.size:
            raise GraphError(
                f"indptr[-1] ({self.indptr[-1]}) must equal len(indices) ({self.indices.size})"
            )
        n = self.num_nodes
        if self._num_dst_nodes is not None and self._num_dst_nodes <= 0:
            raise GraphError(
                f"num_dst_nodes must be positive, got {self._num_dst_nodes}"
            )
        dst_space = self.num_dst_nodes
        if self.indices.size and (
            self.indices.min() < 0 or self.indices.max() >= dst_space
        ):
            raise GraphError(
                "indices contains node IDs outside [0, num_dst_nodes)"
            )
        if self.node_attr is not None and self.node_attr.shape[0] != n:
            raise GraphError(
                f"node_attr has {self.node_attr.shape[0]} rows, expected {n}"
            )
        if self.edge_attr is not None and self.edge_attr.shape[0] != self.indices.size:
            raise GraphError(
                f"edge_attr has {self.edge_attr.shape[0]} rows, expected {self.indices.size}"
            )

    @property
    def num_nodes(self) -> int:
        """Number of (source) nodes."""
        return int(self.indptr.size - 1)

    @property
    def num_dst_nodes(self) -> int:
        """Size of the destination ID space (== num_nodes unless
        bipartite)."""
        if self._num_dst_nodes is not None:
            return self._num_dst_nodes
        return self.num_nodes

    @property
    def num_edges(self) -> int:
        """Number of directed edges."""
        return int(self.indices.size)

    @property
    def attr_len(self) -> int:
        """Node attribute length (0 when the graph carries no attributes)."""
        if self.node_attr is None:
            return 0
        return int(self.node_attr.shape[1]) if self.node_attr.ndim == 2 else 1

    def degree(self, node: int) -> int:
        """Out-degree of ``node``."""
        self._check_node(node)
        return int(self.indptr[node + 1] - self.indptr[node])

    def degrees(self) -> np.ndarray:
        """Out-degree of every node as an ``int64`` array."""
        return np.diff(self.indptr)

    def neighbors(self, node: int) -> np.ndarray:
        """Adjacency list of ``node`` (a view into ``indices``)."""
        self._check_node(node)
        return self.indices[self.indptr[node] : self.indptr[node + 1]]

    def neighbor_slices(self, nodes: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized (start, stop) adjacency offsets for a batch of nodes."""
        nodes = np.asarray(nodes, dtype=np.int64)
        if nodes.size and (nodes.min() < 0 or nodes.max() >= self.num_nodes):
            raise GraphError("node batch contains IDs outside [0, num_nodes)")
        return self.indptr[nodes], self.indptr[nodes + 1]

    def gather(
        self, nodes: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Batch adjacency in concatenated-CSR form.

        Returns ``(values, offsets, base_degrees, delta_degrees)``, the
        surface :meth:`repro.graph.dynamic.GraphView.gather` shares:
        node ``i`` owns ``values[offsets[i]:offsets[i + 1]]``. A static
        graph has no append log, so every delta degree is zero.
        """
        starts, stops = self.neighbor_slices(nodes)
        degrees = stops - starts
        offsets = np.zeros(degrees.size + 1, dtype=np.int64)
        np.cumsum(degrees, out=offsets[1:])
        positions = np.repeat(starts - offsets[:-1], degrees) + np.arange(
            offsets[-1], dtype=np.int64
        )
        return self.indices[positions], offsets, degrees, np.zeros_like(degrees)

    def attributes(self, nodes: Sequence[int]) -> np.ndarray:
        """Attribute rows for a batch of nodes."""
        if self.node_attr is None:
            raise GraphError("graph carries no node attributes")
        nodes = np.asarray(nodes, dtype=np.int64)
        if nodes.size and (nodes.min() < 0 or nodes.max() >= self.num_nodes):
            raise GraphError("node batch contains IDs outside [0, num_nodes)")
        return self.node_attr[nodes]

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise GraphError(f"node {node} outside [0, {self.num_nodes})")

    @classmethod
    def from_edges(
        cls,
        num_nodes: int,
        edges: Iterable[Tuple[int, int]],
        node_attr: Optional[np.ndarray] = None,
        edge_attr_fill: Optional[float] = None,
    ) -> "CSRGraph":
        """Build a CSR graph from an iterable of (src, dst) pairs.

        Edges are sorted by source; relative order of a node's neighbors
        follows the input order after a stable sort.
        """
        if isinstance(edges, (np.ndarray, list, tuple)):
            edge_array = np.asarray(edges, dtype=np.int64)
            if edge_array.size == 0:
                edge_array = edge_array.reshape(0, 2)
            if edge_array.ndim != 2 or edge_array.shape[1] != 2:
                raise GraphError("edges must be (src, dst) pairs")
        else:
            # Lazy iterables (generators) stream straight into the
            # target buffer: peak memory is the edge array itself, not
            # a Python list of tuples plus the array.
            try:
                edge_array = np.fromiter(edges, dtype=np.dtype((np.int64, 2)))
            except (TypeError, ValueError) as exc:
                raise GraphError("edges must be (src, dst) pairs") from exc
        if edge_array.size and (
            edge_array.min() < 0 or edge_array.max() >= num_nodes
        ):
            raise GraphError("edge endpoints outside [0, num_nodes)")
        order = np.argsort(edge_array[:, 0], kind="stable")
        src = edge_array[order, 0]
        dst = edge_array[order, 1]
        counts = np.bincount(src, minlength=num_nodes)
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        edge_attr = None
        if edge_attr_fill is not None:
            edge_attr = np.full(dst.size, edge_attr_fill, dtype=np.float32)
        return cls(indptr, dst, node_attr=node_attr, edge_attr=edge_attr)

    def structure_nbytes(self) -> int:
        """Bytes used by the graph structure (indptr + indices)."""
        return int(self.indptr.nbytes + self.indices.nbytes)

    def attribute_nbytes(self) -> int:
        """Bytes used by node and edge attributes."""
        total = 0
        if self.node_attr is not None:
            total += int(self.node_attr.nbytes)
        if self.edge_attr is not None:
            total += int(self.edge_attr.nbytes)
        return total

    def __repr__(self) -> str:
        return (
            f"CSRGraph(num_nodes={self.num_nodes}, num_edges={self.num_edges}, "
            f"attr_len={self.attr_len})"
        )
