"""System-level hot-node cache (AliGraph-style).

AliGraph caches the most frequently accessed nodes at the framework
level. The paper leans on this to argue that *hardware* temporal caching
is not worthwhile (Tech-4): what reuse exists is already captured here,
and the 512-over-10-billion batch/graph ratio leaves almost nothing for
the FPGA to catch. This LRU implementation lets tests and ablations
quantify exactly that.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional

import numpy as np

from repro.errors import ConfigurationError


class HotNodeCache:
    """LRU cache over neighbor lists and attribute rows.

    Capacity is expressed in *nodes* and is a combined budget: a node
    counts once whether it holds its neighbor list, its attribute row,
    or both, and the total number of distinct cached nodes never
    exceeds ``capacity_nodes``. (An earlier version budgeted the two
    facets independently, silently caching up to twice the stated
    capacity.) Eviction is LRU over nodes — touching either facet
    refreshes the node, and evicting a node drops both facets.
    """

    def __init__(self, capacity_nodes: int) -> None:
        if capacity_nodes <= 0:
            raise ConfigurationError(
                f"capacity_nodes must be positive, got {capacity_nodes}"
            )
        self.capacity_nodes = capacity_nodes
        #: Shared recency order; keys are node IDs, oldest first.
        self._lru: "OrderedDict[int, None]" = OrderedDict()
        self._neighbors: Dict[int, np.ndarray] = {}
        self._attributes: Dict[int, np.ndarray] = {}
        self.neighbor_hits = 0
        self.neighbor_misses = 0
        self.attribute_hits = 0
        self.attribute_misses = 0
        self.invalidations = 0

    # -------------------------------------------------------------- budget
    def __len__(self) -> int:
        """Number of distinct cached nodes (the budgeted quantity)."""
        return len(self._lru)

    def _touch(self, node: int) -> None:
        self._lru[node] = None
        self._lru.move_to_end(node)
        while len(self._lru) > self.capacity_nodes:
            victim, _ = self._lru.popitem(last=False)
            self._neighbors.pop(victim, None)
            self._attributes.pop(victim, None)

    # ------------------------------------------------------------ neighbors
    def get_neighbors(self, node: int) -> Optional[np.ndarray]:
        """Cached neighbor list of ``node``, or ``None`` on a miss.

        Hits are read-only views of the cached entry; copy before
        mutating.
        """
        cached = self._neighbors.get(node)
        if cached is None:
            self.neighbor_misses += 1
            return None
        self._touch(node)
        self.neighbor_hits += 1
        return cached

    def put_neighbors(self, node: int, neighbors: np.ndarray) -> None:
        """Insert a neighbor list, evicting the LRU node when full.

        The array is copied and frozen so neither later caller
        mutations nor mutations of the returned hit can corrupt the
        cached entry.
        """
        entry = np.array(neighbors, dtype=np.int64, copy=True)
        entry.flags.writeable = False
        self._neighbors[node] = entry
        self._touch(node)

    # ----------------------------------------------------------- attributes
    def get_attributes(self, node: int) -> Optional[np.ndarray]:
        """Cached attribute row of ``node``, or ``None`` on a miss.

        Hits are read-only views of the cached entry; copy before
        mutating.
        """
        cached = self._attributes.get(node)
        if cached is None:
            self.attribute_misses += 1
            return None
        self._touch(node)
        self.attribute_hits += 1
        return cached

    def put_attributes(self, node: int, row: np.ndarray) -> None:
        """Insert an attribute row, evicting the LRU node when full.

        Copied and frozen like :meth:`put_neighbors`.
        """
        entry = np.array(row, dtype=np.float32, copy=True)
        entry.flags.writeable = False
        self._attributes[node] = entry
        self._touch(node)

    # --------------------------------------------------------- invalidation
    def invalidate(self, node: int) -> bool:
        """Drop ``node`` from the cache entirely (both facets + LRU slot).

        The online-mutation ingest path calls this for every node whose
        adjacency (or attribute row) changed, so stale pre-mutation data
        can never be served as a hit. Returns ``True`` when the node was
        cached (either facet), ``False`` when it was already absent;
        only actual drops count toward ``invalidations``.
        """
        present = node in self._lru
        self._lru.pop(node, None)
        self._neighbors.pop(node, None)
        self._attributes.pop(node, None)
        if present:
            self.invalidations += 1
        return present

    # ------------------------------------------------------------- metrics
    def bump_neighbor_stats(self, hits: int = 0, misses: int = 0) -> None:
        """Credit extra neighbor lookups served without touching entries.

        The sampler deduplicates a frontier before probing the cache,
        so repeat occurrences of a node never reach
        :meth:`get_neighbors`; this keeps the hit/miss counters
        per occurrence, as the reference walk
        (:class:`~repro.framework.replay.ReferenceWalkSampler`) counts.
        """
        self.neighbor_hits += hits
        self.neighbor_misses += misses

    def bump_attribute_stats(self, hits: int = 0, misses: int = 0) -> None:
        """Attribute-facet counterpart of :meth:`bump_neighbor_stats`."""
        self.attribute_hits += hits
        self.attribute_misses += misses

    @property
    def hits(self) -> int:
        """Total hits across both facets."""
        return self.neighbor_hits + self.attribute_hits

    @property
    def misses(self) -> int:
        """Total misses across both facets."""
        return self.neighbor_misses + self.attribute_misses

    @property
    def hit_rate(self) -> float:
        """Hit fraction over all lookups so far."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def reset_stats(self) -> None:
        """Zero the hit/miss/invalidation counters (contents are kept)."""
        self.neighbor_hits = 0
        self.neighbor_misses = 0
        self.attribute_hits = 0
        self.attribute_misses = 0
        self.invalidations = 0
