"""Dynamic graph support: streaming edge updates with snapshotting.

E-commerce graphs grow continuously ("the data size keeps expanding",
§3.1); AliGraph supports dynamic graphs. :class:`DynamicGraph` keeps a
compact CSR base plus an append log, answers neighbor queries over the
union, and periodically *compacts* the log into a fresh CSR — the
standard LSM-like recipe for in-memory graph services.

The log is two append-only ``int64`` arrays, ``src`` and ``dst``, grown
by doubling, plus a length; the attribute rows of added nodes live in
one ``float32`` block grown the same way.

Two version counters with distinct meanings:

``epoch``
    Monotonic *content* version: advances on every mutation
    (``add_node``/``add_edge``). Version-keyed consumers (caches,
    replay digests, snapshot tokens) key off this. Compaction does not
    advance it — the merged CSR holds exactly the same adjacency.
``version``
    *Layout* version: advances on every compaction (the base CSR
    object was swapped).

:meth:`DynamicGraph.view` mints a :class:`GraphView` in O(1) — an
immutable snapshot token pinning one epoch. It holds the base and log
arrays plus the log length at mint time. Later appends write past that
length, and a regrow or a compaction allocates new arrays the view does
not see, so views stay valid across mutations *and* compactions by
construction. A view sorts its log prefix by source once, on its first
read, and answers every adjacency query from that index.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, GraphError
from repro.graph.csr import CSRGraph

#: Rows a fresh append log (or attribute block) holds before it doubles.
_INITIAL_CAPACITY = 64


def _block_positions(
    starts: np.ndarray, counts: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Positions of the blocks ``[starts[i], starts[i] + counts[i])``,
    concatenated, and each block's offset in that concatenation."""
    offsets = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    positions = np.repeat(starts - offsets[:-1], counts) + np.arange(
        offsets[-1], dtype=np.int64
    )
    return positions, offsets


def _grown(block: np.ndarray, used: int) -> np.ndarray:
    """A block of twice ``block``'s capacity holding ``block[:used]``."""
    bigger = np.empty((2 * block.shape[0],) + block.shape[1:], dtype=block.dtype)
    bigger[:used] = block[:used]
    return bigger


class GraphView:
    """An immutable, consistent snapshot of a :class:`DynamicGraph`.

    The snapshot token of the ingest path: every query answers as of
    ``epoch``, no matter how many mutations or compactions land on the
    underlying graph after the view was minted. Duck-types the subset
    of :class:`~repro.graph.csr.CSRGraph` the sampler and store read
    (``num_nodes``, ``neighbors``, ``gather``, ``attributes``,
    ``attr_len``, ``edge_attr``), so a view can stand in for a static
    graph on the read path.
    """

    #: Views never expose per-edge weights: delta edges carry none, and
    #: a weighted read over a half-weighted union would be meaningless.
    edge_attr = None

    def __init__(
        self,
        base: CSRGraph,
        src: np.ndarray,
        dst: np.ndarray,
        length: int,
        extra_attr: Optional[np.ndarray],
        num_nodes: int,
        epoch: int,
    ) -> None:
        self._base = base
        self._src = src
        self._dst = dst
        self._length = length
        self._extra_attr = extra_attr
        self._num_nodes = num_nodes
        self.epoch = epoch
        #: ``(dst sorted by src, per-node delta degrees, their starts)``,
        #: built on the first read that needs it.
        self._index: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------ shape
    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def base(self) -> CSRGraph:
        """The CSR base this view reads (pre-compaction if one ran)."""
        return self._base

    @property
    def num_edges(self) -> int:
        return self._base.num_edges + self._length

    @property
    def delta_edges(self) -> int:
        """Edges this view reads from the append log, not the base."""
        return self._length

    @property
    def attr_len(self) -> int:
        return self._base.attr_len

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self._num_nodes:
            raise GraphError(f"node {node} outside [0, {self._num_nodes})")

    def _check_nodes(self, nodes: Sequence[int]) -> np.ndarray:
        nodes = np.asarray(nodes, dtype=np.int64)
        if nodes.size and (nodes.min() < 0 or nodes.max() >= self._num_nodes):
            raise GraphError("node batch contains IDs outside [0, num_nodes)")
        return nodes

    def _delta_index(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The log prefix sorted by source (stable, so each node's
        appends keep their insertion order), with per-node degrees and
        start offsets into it."""
        if self._index is None:
            src = self._src[: self._length]
            order = np.argsort(src, kind="stable")
            degrees = np.bincount(src, minlength=self._num_nodes)
            starts = np.zeros(self._num_nodes + 1, dtype=np.int64)
            np.cumsum(degrees, out=starts[1:])
            self._index = (self._dst[: self._length][order], degrees, starts)
        return self._index

    # ---------------------------------------------------------- queries
    def base_degree(self, node: int) -> int:
        if node < self._base.num_nodes:
            return self._base.degree(node)
        return 0

    def delta_degree(self, node: int) -> int:
        if not self._length:
            return 0
        return int(self._delta_index()[1][node])

    def degree(self, node: int) -> int:
        self._check_node(node)
        return self.base_degree(node) + self.delta_degree(node)

    def neighbors(self, node: int) -> np.ndarray:
        """Union adjacency as of this view's epoch (delta edges last)."""
        self._check_node(node)
        if node < self._base.num_nodes:
            block = self._base.neighbors(node)
        else:
            block = np.empty(0, dtype=np.int64)
        if not self._length:
            return block
        values, _degrees, starts = self._delta_index()
        return np.concatenate([block, values[starts[node] : starts[node + 1]]])

    def gather(
        self, nodes: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Batch adjacency in concatenated-CSR form.

        Returns ``(values, offsets, base_degrees, delta_degrees)``:
        node ``i`` owns ``values[offsets[i]:offsets[i + 1]]``, its base
        block first, then its appends in insertion order. The base
        blocks are one positional read of the CSR; the appends are one
        read of the sorted log, inserted after each node's base block.
        """
        base_n = self._base.num_nodes
        if not self._length and self._num_nodes == base_n:
            return self._base.gather(nodes)
        nodes = self._check_nodes(nodes)
        indptr = self._base.indptr
        starts = indptr[np.minimum(nodes, base_n)]
        base_deg = indptr[np.minimum(nodes + 1, base_n)] - starts
        positions, base_offsets = _block_positions(starts, base_deg)
        values = self._base.indices[positions]
        if self._length:
            log, degrees, log_starts = self._delta_index()
            delta_deg = degrees[nodes]
            positions, _ = _block_positions(log_starts[nodes], delta_deg)
            values = np.insert(
                values, np.repeat(base_offsets[1:], delta_deg), log[positions]
            )
        else:
            delta_deg = np.zeros(nodes.size, dtype=np.int64)
        offsets = np.zeros(nodes.size + 1, dtype=np.int64)
        np.cumsum(base_deg + delta_deg, out=offsets[1:])
        return values, offsets, base_deg, delta_deg

    def attributes(self, nodes: Sequence[int]) -> np.ndarray:
        """Attribute rows; nodes added after the base read their
        ingest-time rows."""
        if self._base.node_attr is None:
            raise GraphError("graph carries no node attributes")
        nodes = self._check_nodes(nodes)
        base_n = self._base.num_nodes
        added = nodes >= base_n
        if not added.any():
            return self._base.attributes(nodes)
        rows = np.empty((nodes.size, self.attr_len), dtype=np.float32)
        rows[~added] = self._base.attributes(nodes[~added])
        rows[added] = self._extra_attr[nodes[added] - base_n]
        return rows

    def __repr__(self) -> str:
        return (
            f"GraphView(epoch={self.epoch}, num_nodes={self.num_nodes}, "
            f"num_edges={self.num_edges}, delta_edges={self.delta_edges})"
        )


class DynamicGraph:
    """CSR base + append log with explicit compaction.

    Parameters
    ----------
    base:
        Initial snapshot (may be empty).
    compact_threshold:
        Automatic compaction once the log holds this many edges.
    """

    def __init__(self, base: CSRGraph, compact_threshold: int = 100_000) -> None:
        if compact_threshold <= 0:
            raise ConfigurationError(
                f"compact_threshold must be positive, got {compact_threshold}"
            )
        self._base = base
        self._num_nodes = base.num_nodes
        self._src = np.empty(_INITIAL_CAPACITY, dtype=np.int64)
        self._dst = np.empty(_INITIAL_CAPACITY, dtype=np.int64)
        self._length = 0
        #: Attribute rows of nodes added since the last compaction
        #: (only when the base carries attributes).
        self._extra_attr: Optional[np.ndarray] = None
        if base.attr_len:
            self._extra_attr = np.empty(
                (_INITIAL_CAPACITY, base.attr_len), dtype=np.float32
            )
        self.compact_threshold = compact_threshold
        self.compactions = 0
        #: Layout version: bumps on every compaction (base swap).
        self.version = 0
        #: Content version: bumps on every mutation.
        self.epoch = 0

    # ------------------------------------------------------------ queries
    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def num_edges(self) -> int:
        return self._base.num_edges + self._length

    @property
    def delta_edges(self) -> int:
        """Edges not yet compacted into the CSR base."""
        return self._length

    @property
    def base(self) -> CSRGraph:
        """The current CSR base (read-only; excludes the log)."""
        return self._base

    @property
    def attr_len(self) -> int:
        """Node attribute length of the base (0 without attributes)."""
        return self._base.attr_len

    def degree(self, node: int) -> int:
        return self.view().degree(node)

    def neighbors(self, node: int) -> np.ndarray:
        """Union of base and log adjacency (log edges last)."""
        return self.view().neighbors(node)

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self._num_nodes:
            raise GraphError(f"node {node} outside [0, {self._num_nodes})")

    # ------------------------------------------------------------ snapshots
    def view(self) -> GraphView:
        """Mint a snapshot token for the current epoch, in O(1)."""
        return GraphView(
            self._base,
            self._src,
            self._dst,
            self._length,
            self._extra_attr,
            self._num_nodes,
            self.epoch,
        )

    # ------------------------------------------------------------ updates
    def add_node(self, attr_row: Optional[np.ndarray] = None) -> int:
        """Append a new node; returns its ID.

        When the base carries attributes the new node needs a row too:
        ``attr_row`` (length ``attr_len``) or zeros by default.
        """
        if self._extra_attr is not None:
            row = 0.0
            if attr_row is not None:
                row = np.asarray(attr_row, dtype=np.float32).reshape(-1)
                if row.size != self._base.attr_len:
                    raise ConfigurationError(
                        f"attr_row has {row.size} values, expected "
                        f"{self._base.attr_len}"
                    )
            added = self._num_nodes - self._base.num_nodes
            if added == self._extra_attr.shape[0]:
                self._extra_attr = _grown(self._extra_attr, added)
            self._extra_attr[added] = row
        elif attr_row is not None:
            raise ConfigurationError(
                "attr_row given but the base graph carries no attributes"
            )
        node = self._num_nodes
        self._num_nodes += 1
        self.epoch += 1
        return node

    def add_edge(self, src: int, dst: int) -> None:
        """Append a directed edge (src and dst must exist)."""
        self._check_node(src)
        self._check_node(dst)
        if self._length == self._src.size:
            self._src = _grown(self._src, self._length)
            self._dst = _grown(self._dst, self._length)
        self._src[self._length] = src
        self._dst[self._length] = dst
        self._length += 1
        self.epoch += 1
        if self._length >= self.compact_threshold:
            self.compact()

    def add_edges(self, edges: Iterable[Tuple[int, int]]) -> None:
        for src, dst in edges:
            self.add_edge(int(src), int(dst))

    # --------------------------------------------------------- compaction
    def compact(self) -> None:
        """Merge the log into a fresh CSR base (a new layout).

        One stable sort of the log by source and one insert into the
        base's ``indices``: each node keeps its base block first, then
        its appends in insertion order. Node attributes are the base
        rows plus the rows recorded by :meth:`add_node`; when the base
        carries per-edge attributes, log edges get weight 1.
        Outstanding :class:`GraphView` tokens keep reading the arrays
        they were minted against: the log and attribute block are
        replaced, not cleared.
        """
        base = self._base
        n = self._num_nodes
        if not self._length and base.num_nodes == n:
            return
        src = self._src[: self._length]
        order = np.argsort(src, kind="stable")
        ends = np.full(n + 1, base.num_edges, dtype=np.int64)
        ends[: base.num_nodes + 1] = base.indptr
        positions = ends[src[order] + 1]
        indices = np.insert(base.indices, positions, self._dst[: self._length][order])
        indptr = ends
        indptr[1:] += np.cumsum(np.bincount(src, minlength=n))
        edge_attr = None
        if base.edge_attr is not None:
            edge_attr = np.insert(base.edge_attr, positions, 1.0, axis=0)
        node_attr = base.node_attr
        added = n - base.num_nodes
        if node_attr is not None and added:
            node_attr = np.concatenate([node_attr, self._extra_attr[:added]])
        self._base = CSRGraph(indptr, indices, node_attr=node_attr, edge_attr=edge_attr)
        self._src = np.empty_like(self._src)
        self._dst = np.empty_like(self._dst)
        self._length = 0
        if self._extra_attr is not None:
            self._extra_attr = np.empty_like(self._extra_attr)
        self.compactions += 1
        self.version += 1

    def snapshot(self) -> CSRGraph:
        """An immutable CSR of the current state (forces compaction)."""
        self.compact()
        return self._base


def simulate_growth(
    graph: DynamicGraph,
    num_events: int,
    new_node_probability: float = 0.05,
    seed: int = 0,
) -> DynamicGraph:
    """Replay a preferential-attachment growth trace onto ``graph``.

    Each event either adds a node (with one edge to an existing node)
    or adds an edge between existing nodes, destinations biased toward
    low IDs (early nodes are popular, as in real e-commerce graphs).
    """
    if not 0.0 <= new_node_probability <= 1.0:
        raise ConfigurationError(
            f"new_node_probability must be in [0, 1], got {new_node_probability}"
        )
    if graph.num_nodes == 0:
        raise ConfigurationError("seed graph must have at least one node")
    rng = np.random.default_rng(seed)
    for _ in range(num_events):
        if rng.random() < new_node_probability:
            new = graph.add_node()
            target = int(rng.integers(0, new))
            graph.add_edge(new, target)
        else:
            src = int(rng.integers(0, graph.num_nodes))
            # Zipf-biased destination: early IDs attract more edges.
            # Zipf draws start at 1, so shift by one — node 0 must be
            # the *most* popular destination, not the least.
            dst = (int(rng.zipf(1.8)) - 1) % graph.num_nodes
            graph.add_edge(src, dst)
    return graph
