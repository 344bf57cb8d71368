"""Tests for repro.axe.cache (Tech-4 coalescing cache)."""

import pytest

from repro.axe.cache import CoalescingCache
from repro.axe.core import CoreConfig
from repro.errors import ConfigurationError

#: The core's line size: the cache has no default of its own.
LINE = CoreConfig.line_bytes


class TestCoalescingCache:
    def test_contiguous_read_coalesces(self):
        cache = CoalescingCache(LINE)
        # 27 neighbors x 8B = 216B starting at 0 -> 4 lines.
        requests = cache.access(0, 216, element_bytes=8)
        assert requests == 4
        assert cache.stats.element_accesses == 27

    def test_unaligned_read_spans_extra_line(self):
        cache = CoalescingCache(LINE)
        assert cache.requests_for(60, 8) == 2
        assert cache.requests_for(0, 64) == 1

    def test_repeat_access_hits(self):
        cache = CoalescingCache(LINE)
        assert cache.access(128, 64) == 1
        assert cache.access(128, 64) == 0
        assert cache.stats.line_hits == 1

    def test_direct_mapped_conflict(self):
        cache = CoalescingCache(LINE, capacity_bytes=128)  # 2 lines
        cache.access(0, 8)
        cache.access(128, 8)  # same set as 0
        assert cache.access(0, 8) == 1  # evicted

    def test_coalescing_factor(self):
        cache = CoalescingCache(LINE)
        cache.access(0, 512, element_bytes=8)  # 64 elements, 8 lines
        assert cache.stats.coalescing_factor == pytest.approx(8.0)

    def test_hit_rate(self):
        cache = CoalescingCache(LINE)
        cache.access(0, 64)
        cache.access(0, 64)
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_reset(self):
        cache = CoalescingCache(LINE)
        cache.access(0, 64)
        cache.reset()
        assert cache.stats.line_misses == 0
        assert cache.access(0, 64) == 1  # cold again

    def test_8kb_default_geometry(self):
        cache = CoalescingCache(LINE)
        assert cache.capacity_bytes == 8 * 1024
        assert cache.num_lines == 128

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CoalescingCache(LINE, capacity_bytes=100)
        with pytest.raises(ConfigurationError):
            CoalescingCache(LINE, capacity_bytes=0)
        cache = CoalescingCache(LINE)
        with pytest.raises(ConfigurationError):
            cache.access(-1, 8)
        with pytest.raises(ConfigurationError):
            cache.access(0, 0)
        with pytest.raises(ConfigurationError):
            cache.access(0, 8, element_bytes=0)

    def test_no_temporal_reuse_on_random_nodes(self):
        """Tech-4's sizing argument: random node attribute rows from a
        large graph produce essentially no line hits in 8KB."""
        import numpy as np

        rng = np.random.default_rng(0)
        cache = CoalescingCache(LINE)
        row_bytes = 544
        hits_before = cache.stats.line_hits
        for node in rng.integers(0, 10_000_000, 2000):
            cache.access(int(node) * row_bytes, row_bytes)
        hit_rate = cache.stats.line_hits / (
            cache.stats.line_hits + cache.stats.line_misses
        )
        assert hit_rate < 0.02
        assert hits_before == 0
