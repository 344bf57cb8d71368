"""Tests for repro.gnn.embedding and repro.gnn.metrics."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.gnn.embedding import EmbeddingShard, ShardedEmbeddingTable
from repro.gnn.metrics import accuracy, hits_at_k, micro_f1
from repro.graph.partition import HashPartitioner


def one_shard(num_nodes, dim, seed=0):
    """The dense table: every row in a single shard."""
    return ShardedEmbeddingTable(num_nodes, dim, HashPartitioner(1), seed=seed)


class TestEmbeddingTable:
    def test_lookup_shape(self):
        table = one_shard(100, 8)
        out = table.lookup(np.array([[1, 2], [3, 4]]))
        assert out.shape == (2, 2, 8)

    def test_lookup_out_of_range(self):
        table = one_shard(10, 4)
        with pytest.raises(ConfigurationError):
            table.lookup(np.array([10]))

    def test_sparse_update(self):
        table = one_shard(10, 4)
        before = table.to_dense()
        table.accumulate_grad(np.array([3]), np.ones((1, 4)))
        table.step(0.5)
        after = table.to_dense()
        assert np.allclose(after[3], before[3] - 0.5)
        untouched = [i for i in range(10) if i != 3]
        assert np.array_equal(after[untouched], before[untouched])

    def test_duplicate_indices_sum(self):
        table = one_shard(10, 2)
        before = table.to_dense()[5]
        table.accumulate_grad(np.array([5, 5]), np.ones((2, 2)))
        table.step(1.0)
        assert np.allclose(table.to_dense()[5], before - 2.0)

    def test_pending_rows(self):
        table = one_shard(10, 2)
        table.accumulate_grad(np.array([1, 2]), np.zeros((2, 2)))
        assert table.pending_rows == 2
        table.step(0.1)
        assert table.pending_rows == 0

    def test_grad_shape_mismatch(self):
        table = one_shard(10, 2)
        with pytest.raises(ConfigurationError):
            table.accumulate_grad(np.array([1]), np.zeros((2, 2)))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            one_shard(0, 4)

    def test_training_moves_embedding_toward_target(self):
        table = one_shard(5, 3, seed=1)
        target = np.array([1.0, 2.0, 3.0], dtype=np.float32)
        for _ in range(200):
            emb = table.lookup(np.array([2]))
            grad = emb - target
            table.accumulate_grad(np.array([2]), grad)
            table.step(0.1)
        assert np.allclose(table.to_dense()[2], target, atol=1e-2)


class TestShardedEmbeddingTable:
    """k shards == 1 shard, bit for bit ("dense" is the one-shard table)."""

    NODES = 60
    DIM = 6

    def _tables(self, partitions=3, seed=5):
        dense = one_shard(self.NODES, self.DIM, seed=seed)
        sharded = ShardedEmbeddingTable(
            self.NODES, self.DIM, HashPartitioner(partitions), seed=seed
        )
        return dense, sharded

    def test_init_bit_identical_to_dense(self):
        dense, sharded = self._tables()
        scale = 1.0 / np.sqrt(self.DIM)
        draw = np.random.default_rng(5).uniform(
            -scale, scale, size=(self.NODES, self.DIM)
        )
        assert np.array_equal(dense.to_dense(), draw.astype(np.float32))
        assert np.array_equal(dense.to_dense(), sharded.to_dense())

    def test_shard_count_follows_partitioner(self):
        _, sharded = self._tables(partitions=4)
        assert sharded.num_shards == 4
        owned = np.concatenate([s.node_ids for s in sharded.shards])
        assert np.array_equal(np.sort(owned), np.arange(self.NODES))

    def test_lookup_matches_dense(self):
        dense, sharded = self._tables()
        nodes = np.array([[0, 7, 7], [59, 3, 0]])
        assert np.array_equal(dense.lookup(nodes), sharded.lookup(nodes))
        assert np.array_equal(dense.lookup(nodes), dense.to_dense()[nodes])

    def test_duplicate_root_batches_bit_identical(self):
        """Duplicate-root micro-batches: occurrence-order float32 sums
        must not depend on the shard count."""
        dense, sharded = self._tables()
        rng = np.random.default_rng(0)
        for _ in range(5):
            nodes = rng.integers(0, self.NODES, size=40)
            grads = rng.standard_normal((40, self.DIM)).astype(np.float32)
            dense.accumulate_grad(nodes, grads)
            sharded.accumulate_grad(nodes, grads)
            dense.step(0.1)
            sharded.step(0.1)
        assert np.array_equal(dense.to_dense(), sharded.to_dense())

    def test_single_partition_matches_dense(self):
        """One shard against plain array arithmetic (0.25 sums exactly)."""
        table, _ = self._tables()
        expected = table.to_dense()
        expected[1] -= np.float32(0.75)
        expected[2] -= np.float32(0.25)
        nodes = np.array([1, 1, 2, 1])
        grads = np.full((4, self.DIM), 0.25, dtype=np.float32)
        table.accumulate_grad(nodes, grads)
        table.step(1.0)
        assert np.array_equal(table.to_dense(), expected)

    def test_empty_shard_rejects_instead_of_crashing(self):
        """Shards that own no rows (more partitions than nodes) are
        empty views; the table trains through them."""
        table = ShardedEmbeddingTable(2, 4, HashPartitioner(4))
        assert [s.node_ids.size for s in table.shards] == [1, 1, 0, 0]
        assert table.shards[3].rows.shape == (0, 4)
        table.accumulate_grad(np.array([0, 1]), np.ones((2, 4)))
        table.step(1.0)
        assert table.pending_rows == 0

    def test_shard_rows_are_views_of_one_block(self):
        """A shard is a window on the table, not a copy: its rows show
        a step, and they are the table's rows for its node IDs."""
        _, sharded = self._tables()
        for shard in sharded.shards:
            assert np.shares_memory(shard.rows, sharded._block)
            assert np.array_equal(sharded.to_dense()[shard.node_ids], shard.rows)
        shard = sharded.shards[1]
        node = shard.node_ids[2]
        before = shard.rows[2].copy()
        sharded.accumulate_grad(
            np.array([node]), np.ones((1, self.DIM), dtype=np.float32)
        )
        sharded.step(0.5)
        assert np.array_equal(shard.rows[2], before - np.float32(0.5))
        assert np.array_equal(sharded.to_dense()[shard.node_ids], shard.rows)

    def test_table_routes_instead_of_rejecting(self):
        _, sharded = self._tables()
        nodes = np.arange(self.NODES)  # touches every shard
        sharded.accumulate_grad(
            nodes, np.ones((self.NODES, self.DIM), dtype=np.float32)
        )
        assert sharded.pending_rows == self.NODES
        sharded.step(1.0)
        assert sharded.pending_rows == 0

    def test_lookup_out_of_range(self):
        """Both ends, both entry points: the slot index would wrap a
        negative ID to another node's row without the range check."""
        _, sharded = self._tables()
        grad = np.ones((2, self.DIM), dtype=np.float32)
        for bad in (-1, self.NODES):
            with pytest.raises(ConfigurationError):
                sharded.lookup(np.array([[0, bad]]))
            with pytest.raises(ConfigurationError):
                sharded.accumulate_grad(np.array([0, bad]), grad)
            # a rejected batch must not leave partial pending state
            assert sharded.pending_rows == 0

    def test_shard_validation(self):
        with pytest.raises(ConfigurationError, match="sorted"):
            EmbeddingShard(0, np.array([3, 1]), np.zeros((2, 2), np.float32))
        with pytest.raises(ConfigurationError, match="rows"):
            EmbeddingShard(0, np.array([1, 3]), np.zeros((1, 2), np.float32))


class TestMetrics:
    def test_micro_f1_perfect(self):
        labels = np.array([[1, 0], [0, 1]])
        assert micro_f1(labels, labels) == 1.0

    def test_micro_f1_zero(self):
        predictions = np.array([[1, 1]])
        labels = np.array([[0, 0]])
        assert micro_f1(predictions, labels) == 0.0

    def test_micro_f1_partial(self):
        predictions = np.array([[1, 0, 1, 0]])
        labels = np.array([[1, 1, 0, 0]])
        # tp=1, fp=1, fn=1 -> f1 = 2/(2+1+1)
        assert micro_f1(predictions, labels) == pytest.approx(0.5)

    def test_micro_f1_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            micro_f1(np.zeros((2, 2)), np.zeros((3, 2)))

    def test_micro_f1_all_negative(self):
        assert micro_f1(np.zeros((2, 3)), np.zeros((2, 3))) == 0.0

    def test_accuracy(self):
        assert accuracy(np.array([1, 2, 3]), np.array([1, 0, 3])) == pytest.approx(
            2 / 3
        )

    def test_accuracy_empty(self):
        assert accuracy(np.array([]), np.array([])) == 0.0

    def test_hits_at_1(self):
        scores = np.array([[3.0, 1.0, 2.0], [0.0, 5.0, 1.0]])
        assert hits_at_k(scores, 1) == pytest.approx(0.5)

    def test_hits_at_2(self):
        scores = np.array([[3.0, 1.0, 2.0], [0.5, 5.0, 0.1]])
        assert hits_at_k(scores, 2) == pytest.approx(1.0)

    def test_hits_validation(self):
        with pytest.raises(ConfigurationError):
            hits_at_k(np.zeros((2,)), 1)
        with pytest.raises(ConfigurationError):
            hits_at_k(np.zeros((2, 3)), 5)
