"""Coalescing cache (Tech-4).

The paper argues temporal caching is useless in LSD-GNN (512-root
batches against 10-billion-node graphs leave no reuse; AliGraph already
caches hot nodes at the system level) and instead provisions only an
8KB cache whose job is *coalescing*: merging the element-granular
accesses of a contiguous edge list or attribute row into line-granular
memory requests.

This model is a direct-mapped, 64B-line cache that answers: how many
memory requests does a contiguous read of ``nbytes`` at ``addr``
actually issue? Uncached hardware issues one request per element;
cached hardware issues one per missing line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.errors import ConfigurationError
from repro.units import KB


@dataclass
class CacheStats:
    """Hit/miss counters (line granularity)."""

    line_hits: int = 0
    line_misses: int = 0
    element_accesses: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.line_hits + self.line_misses
        return self.line_hits / total if total else 0.0

    @property
    def coalescing_factor(self) -> float:
        """Element accesses per issued memory request."""
        if self.line_misses == 0:
            return float(self.element_accesses) if self.element_accesses else 1.0
        return self.element_accesses / self.line_misses


class CoalescingCache:
    """Direct-mapped line cache used purely for spatial coalescing."""

    def __init__(self, line_bytes: int, capacity_bytes: int = 8 * KB) -> None:
        if line_bytes <= 0 or capacity_bytes <= 0:
            raise ConfigurationError("capacity and line size must be positive")
        if capacity_bytes % line_bytes != 0:
            raise ConfigurationError(
                f"capacity ({capacity_bytes}) must be a multiple of the line "
                f"size ({line_bytes})"
            )
        self.capacity_bytes = capacity_bytes
        self.line_bytes = line_bytes
        self.num_lines = capacity_bytes // line_bytes
        self._lines: Dict[int, int] = {}  # set index -> resident tag
        self.stats = CacheStats()

    def access(self, addr: int, nbytes: int, element_bytes: int = 8) -> int:
        """Read ``nbytes`` at ``addr``; returns memory requests issued.

        ``element_bytes`` is the natural access granularity of the
        requesting unit (8B node IDs); it is what an uncached design
        would issue per element and is counted in the stats.
        """
        if addr < 0 or nbytes <= 0:
            raise ConfigurationError("addr must be >= 0 and nbytes positive")
        if element_bytes <= 0:
            raise ConfigurationError(
                f"element_bytes must be positive, got {element_bytes}"
            )
        self.stats.element_accesses += -(-nbytes // element_bytes)
        first_line = addr // self.line_bytes
        last_line = (addr + nbytes - 1) // self.line_bytes
        misses = 0
        for line in range(first_line, last_line + 1):
            set_index = line % self.num_lines
            if self._lines.get(set_index) == line:
                self.stats.line_hits += 1
            else:
                self._lines[set_index] = line
                self.stats.line_misses += 1
                misses += 1
        return misses

    def requests_for(self, addr: int, nbytes: int) -> int:
        """Lines spanned by a contiguous read (no state update)."""
        if addr < 0 or nbytes <= 0:
            raise ConfigurationError("addr must be >= 0 and nbytes positive")
        first_line = addr // self.line_bytes
        last_line = (addr + nbytes - 1) // self.line_bytes
        return last_line - first_line + 1

    def reset(self) -> None:
        """Invalidate all lines and zero the stats."""
        self._lines.clear()
        self.stats = CacheStats()
