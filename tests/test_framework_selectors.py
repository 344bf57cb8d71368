"""Tests for repro.framework.selectors (uniform vs streaming, Tech-2)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.framework.selectors import (
    RAGGED_PICKERS,
    SELECTORS,
    _rowwise_weighted_picks,
    get_bucket_selector,
    get_ragged_picker,
    get_selector,
    select_streaming,
    select_streaming_bucket,
    select_streaming_weighted_bucket,
    select_uniform,
    select_uniform_bucket,
    select_weighted_bucket,
)


class TestUniform:
    def test_samples_from_input(self):
        rng = np.random.default_rng(0)
        neighbors = np.array([5, 7, 9])
        picks = select_uniform(neighbors, 10, rng)
        assert len(picks) == 10
        assert set(picks.tolist()) <= {5, 7, 9}

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            select_uniform(np.array([]), 3, np.random.default_rng(0))

    def test_rejects_bad_fanout(self):
        with pytest.raises(ConfigurationError):
            select_uniform(np.array([1]), 0, np.random.default_rng(0))


class TestStreaming:
    def test_samples_from_input(self):
        rng = np.random.default_rng(0)
        neighbors = np.arange(100, 130)
        picks = select_streaming(neighbors, 10, rng)
        assert len(picks) == 10
        assert set(picks.tolist()) <= set(neighbors.tolist())

    def test_one_pick_per_group(self):
        """Each of the K picks must come from its contiguous group."""
        rng = np.random.default_rng(1)
        n, k = 40, 4
        neighbors = np.arange(n)
        picks = select_streaming(neighbors, k, rng)
        for group, pick in enumerate(picks):
            assert group * n // k <= pick < (group + 1) * n // k

    def test_small_list_wraps(self):
        rng = np.random.default_rng(2)
        picks = select_streaming(np.array([3, 4]), 6, rng)
        assert len(picks) == 6
        assert set(picks.tolist()) <= {3, 4}

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            select_streaming(np.array([]), 3, np.random.default_rng(0))

    def test_near_uniform_marginals(self):
        """The paper's accuracy-parity claim rests on step-based sampling
        being statistically close to uniform: every element's selection
        probability is K/N exactly when K divides N."""
        rng = np.random.default_rng(3)
        n, k, trials = 20, 4, 6000
        counts = np.zeros(n)
        for _ in range(trials):
            picks = select_streaming(np.arange(n), k, rng)
            counts[picks] += 1
        expected = trials * k / n
        # Chi-square-ish tolerance: all within 15% of expectation.
        assert (np.abs(counts - expected) / expected < 0.15).all()

    def test_streaming_covers_distinct_groups(self):
        """Unlike uniform-with-replacement, streaming never picks twice
        from the same group — it has provably better spread."""
        rng = np.random.default_rng(4)
        n, k = 100, 10
        picks = select_streaming(np.arange(n), k, rng)
        groups = picks // (n // k)
        assert len(set(groups.tolist())) == k


def scalar_streaming_oracle(neighbors, fanout, rng):
    """Tech-2's streaming pick as one scalar ``rng.integers`` per group."""
    n = neighbors.size
    out = np.empty(fanout, dtype=neighbors.dtype)
    for group in range(fanout):
        start = group * n // fanout
        stop = (group + 1) * n // fanout
        if stop <= start:
            pick = int(rng.integers(0, n))
        else:
            pick = int(rng.integers(start, stop))
        out[group] = neighbors[pick]
    return out


class TestStreamingStreamIdentity:
    """The one-call streaming pick consumes the RNG exactly as the
    per-group scalar loop: same picks, same generator state after."""

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 300),
        fanout=st.integers(1, 16),
        seed=st.integers(0, 2**32 - 1),
        odd_offset=st.booleans(),
    )
    @example(n=3, fanout=10, seed=0, odd_offset=False)  # n < fanout
    @example(n=10, fanout=10, seed=1, odd_offset=True)  # n == fanout
    @example(n=1, fanout=1, seed=2, odd_offset=False)
    @example(n=300, fanout=16, seed=3, odd_offset=True)  # n > fanout
    def test_picks_and_end_state_match_scalar_loop(self, n, fanout, seed, odd_offset):
        neighbors = np.arange(n, dtype=np.int64) * 7 + 3
        rng = np.random.default_rng(seed)
        oracle_rng = np.random.default_rng(seed)
        if odd_offset:
            # Leave half a 64-bit word in the generator's 32-bit buffer.
            assert rng.integers(0, 5) == oracle_rng.integers(0, 5)
        picks = select_streaming(neighbors, fanout, rng)
        expected = scalar_streaming_oracle(neighbors, fanout, oracle_rng)
        assert picks.dtype == expected.dtype
        assert np.array_equal(picks, expected)
        assert rng.integers(0, 5) == oracle_rng.integers(0, 5)
        assert rng.random() == oracle_rng.random()


class TestRegistry:
    def test_get_selector(self):
        assert get_selector("uniform") is select_uniform
        assert get_selector("streaming") is select_streaming

    def test_registry_complete(self):
        assert set(SELECTORS) == {
            "uniform",
            "streaming",
            "weighted",
            "streaming_weighted",
        }

    def test_unknown_selector(self):
        with pytest.raises(ConfigurationError):
            get_selector("sorted")


class _PlateauRng:
    """Stub RNG whose uniforms land exactly on the CDF's final plateau."""

    def random(self, shape):
        return np.ones(shape, dtype=np.float64)


class TestRowwiseWeightedPicksBoundary:
    """Regression: a draw on a trailing zero-weight plateau must never
    select a zero-weight entry (the old ``side="right"`` + clip-to-d-1
    resolved it to the last column regardless of its weight)."""

    @staticmethod
    def _cdf(weights):
        weights = np.asarray(weights, dtype=np.float64)
        return np.cumsum(weights / weights.sum(axis=1, keepdims=True), axis=1)

    def test_trailing_zero_weights_unpickable(self):
        cdf = self._cdf([[1.0, 0.0, 0.0]])
        picks = _rowwise_weighted_picks(cdf, np.array([[1.0]]))
        assert picks.tolist() == [[0]]

    def test_partial_trailing_zero_run(self):
        cdf = self._cdf([[1.0, 1.0, 1.0, 0.0]])
        picks = _rowwise_weighted_picks(cdf, np.array([[1.0]]))
        # cdf == [1/3, 2/3, 1, 1]: the plateau draw resolves to the
        # entry that completed the mass, not the zero-weight tail.
        assert picks.tolist() == [[2]]

    def test_interior_plateau_still_skipped(self):
        cdf = self._cdf([[1.0, 0.0, 1.0]])
        # cdf == [0.5, 0.5, 1]; a draw exactly on the interior plateau
        # must resolve past it (side="right"), never to the zero column.
        picks = _rowwise_weighted_picks(cdf, np.array([[0.5]]))
        assert picks.tolist() == [[2]]

    def test_rows_clamp_independently(self):
        cdf = self._cdf([[1.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        picks = _rowwise_weighted_picks(cdf, np.full((2, 2), 1.0))
        assert picks[0].tolist() == [0, 0]
        assert picks[1].tolist() == [2, 2]

    def test_in_range_draws_unaffected(self):
        cdf = self._cdf([[1.0, 2.0, 1.0]])
        draws = np.array([[0.0, 0.2, 0.5, 0.7, 0.99]])
        picks = _rowwise_weighted_picks(cdf, draws)
        assert picks.tolist() == [[0, 0, 1, 1, 2]]

    def test_end_to_end_bucket_never_picks_zero_weight(self):
        matrix = np.array([[10, 11, 12]])
        weights = np.array([[1.0, 0.0, 0.0]])
        out = select_weighted_bucket(matrix, 4, _PlateauRng(), weights=weights)
        assert out.tolist() == [[10, 10, 10, 10]]

    def test_statistical_zero_weight_exclusion(self):
        rng = np.random.default_rng(0)
        matrix = np.tile(np.array([[10, 11, 12]]), (8, 1))
        weights = np.tile(np.array([[1.0, 1.0, 0.0]]), (8, 1))
        for _ in range(50):
            out = select_weighted_bucket(matrix, 16, rng, weights=weights)
            assert not (out == 12).any()


class TestBucketEdgeCases:
    def test_fanout_exceeds_bucket_width(self):
        rng = np.random.default_rng(0)
        matrix = np.array([[7, 8], [9, 10]])
        for select in (select_uniform_bucket, select_streaming_bucket):
            out = select(matrix, 5, rng)
            assert out.shape == (2, 5)
            assert set(out[0].tolist()) <= {7, 8}
            assert set(out[1].tolist()) <= {9, 10}

    def test_fanout_exceeds_width_weighted(self):
        rng = np.random.default_rng(1)
        matrix = np.array([[7, 8]])
        weights = np.array([[3.0, 1.0]])
        for select in (
            select_weighted_bucket,
            select_streaming_weighted_bucket,
        ):
            out = select(matrix, 6, rng, weights=weights)
            assert out.shape == (1, 6)
            assert set(out[0].tolist()) <= {7, 8}

    def test_single_column_bucket(self):
        rng = np.random.default_rng(2)
        matrix = np.array([[4], [5], [6]])
        weights = np.ones((3, 1))
        for out in (
            select_uniform_bucket(matrix, 3, rng),
            select_streaming_bucket(matrix, 3, rng),
            select_weighted_bucket(matrix, 3, rng, weights=weights),
            select_streaming_weighted_bucket(matrix, 3, rng, weights=weights),
        ):
            assert out.tolist() == [[4] * 3, [5] * 3, [6] * 3]

    def test_all_equal_weights_near_uniform(self):
        rng = np.random.default_rng(3)
        matrix = np.tile(np.arange(4), (64, 1))
        weights = np.full((64, 4), 2.5)
        counts = np.zeros(4)
        for _ in range(40):
            out = select_weighted_bucket(matrix, 8, rng, weights=weights)
            counts += np.bincount(out.ravel(), minlength=4)
        expected = counts.sum() / 4
        assert (np.abs(counts - expected) / expected < 0.1).all()

    def test_one_hot_weights_deterministic(self):
        rng = np.random.default_rng(4)
        matrix = np.tile(np.arange(100, 105), (3, 1))
        weights = np.zeros((3, 5))
        weights[0, 4] = 1.0  # one-hot on the last column
        weights[1, 0] = 1.0
        weights[2, 2] = 1.0
        out = select_weighted_bucket(matrix, 7, rng, weights=weights)
        assert out[0].tolist() == [104] * 7
        assert out[1].tolist() == [100] * 7
        assert out[2].tolist() == [102] * 7
        # Streaming: one group == whole row, so one-hot is deterministic
        # there too (smaller groups that miss the hot column fall back
        # to uniform within the group, like the scalar selector).
        out = select_streaming_weighted_bucket(matrix, 1, rng, weights=weights)
        assert out.tolist() == [[104], [100], [102]]

    def test_bucket_weight_validation(self):
        rng = np.random.default_rng(0)
        matrix = np.ones((2, 3), dtype=np.int64)
        with pytest.raises(ConfigurationError):
            select_weighted_bucket(
                matrix, 2, rng, weights=np.ones((2, 2))
            )
        with pytest.raises(ConfigurationError):
            select_weighted_bucket(
                matrix, 2, rng, weights=np.zeros((2, 3))
            )

    def test_rejects_non_matrix(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError):
            select_uniform_bucket(np.arange(3), 2, rng)
        with pytest.raises(ConfigurationError):
            select_streaming_bucket(np.empty((2, 0)), 2, rng)


def bucket_oracle_picks(bucket_selector, sorted_degrees, fanout, rng):
    """Per-degree ``select_*_bucket`` calls in ascending degree order.

    Each bucket's matrix is ``arange(d)`` per row, so the selected
    values *are* the picks.
    """
    boundaries = np.flatnonzero(np.diff(sorted_degrees)) + 1
    return np.concatenate(
        [
            bucket_selector(
                np.tile(np.arange(int(bucket[0])), (bucket.size, 1)), fanout, rng
            )
            for bucket in np.split(sorted_degrees, boundaries)
        ]
    )


#: Degree vectors: mixed (degree 1 and degree < fanout included), a
#: single bucket, all-distinct degrees, and tiny degrees only.
degree_vectors = st.one_of(
    st.lists(st.integers(1, 40), min_size=1, max_size=60),
    st.builds(lambda d, k: [d] * k, st.integers(1, 30), st.integers(1, 40)),
    st.integers(1, 50).map(lambda n: list(range(1, n + 1))),
    st.lists(st.integers(1, 3), min_size=1, max_size=60),
)


class TestRaggedStreamIdentity:
    """The ragged pickers consume the RNG exactly as the bucket loop did."""

    @pytest.mark.parametrize("name", ["uniform", "streaming"])
    @settings(max_examples=150, deadline=None)
    @given(
        degrees=degree_vectors,
        fanout=st.integers(1, 14),
        seed=st.integers(0, 2**32 - 1),
        odd_offset=st.booleans(),
    )
    def test_picks_and_end_state_match_bucket_loop(
        self, name, degrees, fanout, seed, odd_offset
    ):
        selector = SELECTORS[name]
        sorted_degrees = np.sort(np.asarray(degrees, dtype=np.int64))
        ragged_rng = np.random.default_rng(seed)
        oracle_rng = np.random.default_rng(seed)
        if odd_offset:
            # Leave half a 64-bit word in the generator's 32-bit buffer.
            assert ragged_rng.integers(0, 5) == oracle_rng.integers(0, 5)
        picks = get_ragged_picker(selector)(sorted_degrees, fanout, ragged_rng)
        expected = bucket_oracle_picks(
            get_bucket_selector(selector), sorted_degrees, fanout, oracle_rng
        )
        assert picks.shape == (sorted_degrees.size, fanout)
        assert np.array_equal(picks, expected)
        assert (picks >= 0).all() and (picks < sorted_degrees[:, None]).all()
        assert ragged_rng.random() == oracle_rng.random()

    def test_degree_one_rows_consume_nothing(self):
        for picker in RAGGED_PICKERS.values():
            rng = np.random.default_rng(3)
            untouched = np.random.default_rng(3)
            picks = picker(np.ones(7, dtype=np.int64), 5, rng)
            assert (picks == 0).all()
            assert rng.random() == untouched.random()

    def test_only_degree_only_selectors_have_a_picker(self):
        assert set(RAGGED_PICKERS) == {select_uniform, select_streaming}
        assert get_ragged_picker(SELECTORS["weighted"]) is None
        assert get_ragged_picker(SELECTORS["streaming_weighted"]) is None
