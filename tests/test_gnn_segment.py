"""Equivalence tests: segment reductions vs. per-row Python loops.

The vectorized neighbor-aggregation primitives (``np.add.at`` /
``np.add.reduceat`` under :func:`segment_sum` /
:func:`ragged_segment_sum`) must produce exactly what the historical
per-row loops produced — including float32 accumulation order, empty
segments, and every-key-duplicated batches. The embedding table's
gradient scatter is held to the same loop oracle at one and at four
shards.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.gnn.embedding import ShardedEmbeddingTable
from repro.gnn.layers import ragged_segment_sum, segment_mean, segment_sum
from repro.graph.partition import HashPartitioner


def loop_segment_sum(values, segment_ids, num_segments):
    out = np.zeros((num_segments,) + values.shape[1:], dtype=values.dtype)
    for row, seg in zip(values, segment_ids):
        out[seg] = out[seg] + row
    return out


def loop_ragged_sum(values, offsets):
    out = np.zeros((offsets.size - 1,) + values.shape[1:], dtype=values.dtype)
    for i in range(offsets.size - 1):
        for row in values[offsets[i] : offsets[i + 1]]:
            out[i] = out[i] + row
    return out


class TestSegmentSum:
    def test_matches_loop(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(40, 6)).astype(np.float32)
        ids = rng.integers(0, 7, size=40)
        expected = loop_segment_sum(values, ids, 7)
        np.testing.assert_array_equal(segment_sum(values, ids, 7), expected)

    @pytest.mark.parametrize("dtype", [np.float32, np.int64])
    @pytest.mark.parametrize("trailing", [(), (5,), (3, 4)])
    def test_flattened_scatter_matches_loop_bitwise(self, trailing, dtype):
        """Rows wider than one element scatter through a flattened
        index; per element that must be the loop's left fold, with
        groups past NumPy's pairwise-summation block sizes (8, 128)."""
        rng = np.random.default_rng(7)
        ids = np.minimum(rng.zipf(1.3, size=900), 40) - 1
        assert np.bincount(ids).max() >= 128
        values = (rng.standard_normal((900,) + trailing) * 100).astype(dtype)
        # num_segments beyond every ID: the tail stays zero.
        out = segment_sum(values, ids, 64)
        assert out.dtype == dtype and out.shape == (64,) + trailing
        np.testing.assert_array_equal(out, loop_segment_sum(values, ids, 64))
        assert not out[40:].any()

    @pytest.mark.parametrize("trailing", [(), (5,), (3, 4)])
    def test_flattened_scatter_empty_input(self, trailing):
        out = segment_sum(np.empty((0,) + trailing, dtype=np.float32), np.empty(0), 4)
        assert out.shape == (4,) + trailing
        assert not out.any()

    def test_duplicates_accumulate(self):
        # The scatter-add property fancy-index assignment silently lacks.
        values = np.ones((5, 2), dtype=np.float32)
        out = segment_sum(values, np.zeros(5, dtype=np.int64), 3)
        np.testing.assert_array_equal(out[0], np.full(2, 5.0))
        np.testing.assert_array_equal(out[1:], np.zeros((2, 2)))

    def test_empty_input(self):
        out = segment_sum(np.empty((0, 3), dtype=np.float32), np.empty(0), 4)
        assert out.shape == (4, 3)
        assert not out.any()

    def test_rejects_bad_ids(self):
        values = np.ones((2, 2), dtype=np.float32)
        with pytest.raises(ConfigurationError):
            segment_sum(values, np.array([0, 5]), 3)
        with pytest.raises(ConfigurationError):
            segment_sum(values, np.array([0]), 3)

    def test_mean_matches_loop(self):
        rng = np.random.default_rng(1)
        values = rng.normal(size=(30, 4)).astype(np.float32)
        ids = rng.integers(0, 5, size=30)
        counts = np.bincount(ids, minlength=6)
        expected = loop_segment_sum(values, ids, 6)
        nz = counts > 0
        expected[nz] = expected[nz] / counts[nz, None]
        np.testing.assert_allclose(segment_mean(values, ids, 6), expected)

    def test_mean_empty_segment_is_zero(self):
        out = segment_mean(np.ones((2, 2), dtype=np.float32), np.array([2, 2]), 4)
        assert not np.isnan(out).any()
        np.testing.assert_array_equal(out[0], np.zeros(2))
        np.testing.assert_array_equal(out[2], np.ones(2))


class TestRaggedSegmentSum:
    def test_matches_loop(self):
        rng = np.random.default_rng(2)
        lengths = rng.integers(0, 6, size=12)
        offsets = np.zeros(13, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        values = rng.normal(size=(int(offsets[-1]), 3)).astype(np.float32)
        # reduceat may associate additions pairwise, so allow float32
        # rounding relative to the strict left-fold loop.
        np.testing.assert_allclose(
            ragged_segment_sum(values, offsets),
            loop_ragged_sum(values, offsets),
            rtol=1e-5,
            atol=1e-6,
        )

    def test_empty_segments_are_zero(self):
        # reduceat's empty-segment quirk must not leak through.
        values = np.arange(6, dtype=np.float32).reshape(3, 2)
        offsets = np.array([0, 0, 3, 3, 3])
        out = ragged_segment_sum(values, offsets)
        np.testing.assert_array_equal(out[0], np.zeros(2))
        np.testing.assert_array_equal(out[1], values.sum(axis=0))
        np.testing.assert_array_equal(out[2], np.zeros(2))
        np.testing.assert_array_equal(out[3], np.zeros(2))

    def test_all_empty(self):
        out = ragged_segment_sum(
            np.empty((0, 2), dtype=np.float32), np.zeros(5, dtype=np.int64)
        )
        assert out.shape == (4, 2)
        assert not out.any()

    def test_rejects_bad_offsets(self):
        values = np.ones((3, 1), dtype=np.float32)
        with pytest.raises(ConfigurationError):
            ragged_segment_sum(values, np.array([0, 2]))  # doesn't cover values
        with pytest.raises(ConfigurationError):
            ragged_segment_sum(values, np.array([0, 2, 1, 3]))  # decreasing


PARTITIONS = (1, 4)


def table_pair(num_nodes, dim, partitions, seed):
    """The table and its loop oracle over the same initial rows."""
    table = ShardedEmbeddingTable(
        num_nodes, dim, HashPartitioner(partitions), seed=seed
    )
    return table, LoopEmbeddingTable(table.to_dense())


class LoopEmbeddingTable:
    """The historical per-row dict accumulation, kept as the oracle."""

    def __init__(self, rows):
        self.rows = rows
        self.dim = rows.shape[1]
        self._dict = {}

    def accumulate_grad(self, nodes, grads):
        nodes = np.asarray(nodes, dtype=np.int64).reshape(-1)
        grads = np.asarray(grads, dtype=np.float32).reshape(-1, self.dim)
        for node, grad in zip(nodes, grads):
            key = int(node)
            if key in self._dict:
                self._dict[key] = self._dict[key] + grad
            else:
                self._dict[key] = grad.copy()

    def step(self, lr):
        for node, grad in self._dict.items():
            self.rows[node] -= lr * grad
        self._dict.clear()


def assert_step_matches(fast, slow, lr):
    """One optimizer step on both; the tables must agree bit for bit."""
    fast.step(lr)
    slow.step(lr)
    np.testing.assert_array_equal(fast.to_dense(), slow.rows)


class TestEmbeddingEquivalence:
    def test_vectorized_matches_loop(self):
        for partitions in PARTITIONS:
            rng = np.random.default_rng(3)
            fast, slow = table_pair(50, 8, partitions, seed=4)
            for _ in range(5):
                nodes = rng.integers(0, 50, size=32)
                grads = rng.normal(size=(32, 8)).astype(np.float32)
                fast.accumulate_grad(nodes, grads)
                slow.accumulate_grad(nodes, grads)
            # np.add.at applies additions in occurrence order, so the
            # float32 accumulation is bit-identical to the loop.
            assert_step_matches(fast, slow, 0.1)

    def test_duplicate_heavy_batch(self):
        for partitions in PARTITIONS:
            fast, slow = table_pair(10, 4, partitions, seed=0)
            nodes = np.array([7, 7, 7, 7])
            grads = np.arange(16, dtype=np.float32).reshape(4, 4)
            fast.accumulate_grad(nodes, grads)
            slow.accumulate_grad(nodes, grads)
            assert fast.pending_rows == 1
            assert_step_matches(fast, slow, 1.0)

    def test_hub_heavy_batches(self):
        """Zipf IDs: hubs gather groups past NumPy's pairwise-summation
        block sizes (8 and 128), split over several calls before one
        step. A sort + ``reduceat`` scatter fails here in the last bit."""
        for partitions in PARTITIONS:
            rng = np.random.default_rng(9)
            fast, slow = table_pair(400, 16, partitions, seed=2)
            seen = np.zeros(400, dtype=np.int64)
            for _ in range(3):
                nodes = np.minimum(rng.zipf(1.3, size=1088), 400) - 1
                grads = rng.standard_normal((1088, 16)).astype(np.float32)
                fast.accumulate_grad(nodes, grads)
                slow.accumulate_grad(nodes, grads)
                seen += np.bincount(nodes, minlength=400)
            assert seen.max() >= 128 and np.any((seen >= 8) & (seen < 128))
            assert_step_matches(fast, slow, 0.1)

    def test_pending_rows_across_batches(self):
        for partitions in PARTITIONS:
            table, _ = table_pair(20, 2, partitions, seed=0)
            table.accumulate_grad(np.array([1, 2]), np.ones((2, 2)))
            table.accumulate_grad(np.array([2, 3]), np.ones((2, 2)))
            assert table.pending_rows == 3
            table.step(0.5)
            assert table.pending_rows == 0
