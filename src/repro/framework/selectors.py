"""Neighbor-selection strategies shared by software and hardware samplers.

Two strategies matter to the paper:

* :func:`select_uniform` — the conventional method: sample K of N
  uniformly with replacement (the software baseline; in hardware this
  needs N candidate storage and N+K cycles).
* :func:`select_streaming` — the paper's Tech-2 step-based approximate
  random sampling: split the incoming stream of N candidates into K
  contiguous groups and pick one uniform element per group. Needs no
  candidate storage, completes in N cycles, and is statistically close
  enough to uniform that model accuracy is unaffected (0.548 vs 0.549
  on PPI in the paper).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.framework.kernels import NUMPY_KERNELS, rowwise_weighted_picks


def select_uniform(
    neighbors: np.ndarray, fanout: int, rng: np.random.Generator
) -> np.ndarray:
    """Uniformly sample ``fanout`` entries of ``neighbors`` with replacement."""
    neighbors = np.asarray(neighbors)
    if fanout <= 0:
        raise ConfigurationError(f"fanout must be positive, got {fanout}")
    if neighbors.size == 0:
        raise ConfigurationError("cannot sample from an empty neighbor list")
    picks = rng.integers(0, neighbors.size, size=fanout)
    return neighbors[picks]


def select_streaming(
    neighbors: np.ndarray, fanout: int, rng: np.random.Generator
) -> np.ndarray:
    """Step-based streaming sampling (Tech-2).

    The N candidates are divided into ``fanout`` groups *in arrival
    order*; one uniformly random element is selected from each group.
    When N < fanout, the stream wraps (each pass contributes its
    elements again), matching the hardware's with-replacement padding.
    """
    neighbors = np.asarray(neighbors)
    if fanout <= 0:
        raise ConfigurationError(f"fanout must be positive, got {fanout}")
    n = neighbors.size
    if n == 0:
        raise ConfigurationError("cannot sample from an empty neighbor list")
    # Group boundaries: group g covers [g*n//fanout, (g+1)*n//fanout) for
    # n >= fanout; degenerate groups (when n < fanout) pick uniformly
    # from the whole list, which is what the wrapped stream converges to.
    edges = np.arange(0, (fanout + 1) * n, n) // fanout
    start, stop = edges[:-1], edges[1:]
    if n < fanout:
        degenerate = stop == start
        start, stop = np.where(degenerate, 0, start), np.where(degenerate, n, stop)
    # One call draws the groups in order, one Lemire draw each, exactly
    # as a per-group loop of scalar ``rng.integers`` calls would.
    return neighbors[rng.integers(start, stop)]


def select_weighted(
    neighbors: np.ndarray,
    fanout: int,
    rng: np.random.Generator,
    weights: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Weighted sampling with replacement (edge-weight / degree-based).

    ``weights`` defaults to uniform; degree-based sampling passes each
    neighbor's degree. This is the software reference the streaming
    variant approximates.
    """
    neighbors = np.asarray(neighbors)
    if fanout <= 0:
        raise ConfigurationError(f"fanout must be positive, got {fanout}")
    if neighbors.size == 0:
        raise ConfigurationError("cannot sample from an empty neighbor list")
    if weights is None:
        return select_uniform(neighbors, fanout, rng)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != neighbors.shape:
        raise ConfigurationError(
            f"weights shape {weights.shape} != neighbors shape {neighbors.shape}"
        )
    if (weights < 0).any() or weights.sum() <= 0:
        raise ConfigurationError("weights must be non-negative with positive sum")
    probabilities = weights / weights.sum()
    picks = rng.choice(neighbors.size, size=fanout, replace=True, p=probabilities)
    return neighbors[picks]


def select_streaming_weighted(
    neighbors: np.ndarray,
    fanout: int,
    rng: np.random.Generator,
    weights: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Streaming weighted sampling: one weighted pick per group.

    The hardware extension of Tech-2 the paper alludes to ("[random
    sampling] is the base for many other sampling methods, such as
    degree-based sampling"): each contiguous group keeps a running
    weighted reservoir of size 1 (A-ES style), so it still needs no
    candidate storage and completes in N cycles.
    """
    neighbors = np.asarray(neighbors)
    if fanout <= 0:
        raise ConfigurationError(f"fanout must be positive, got {fanout}")
    n = neighbors.size
    if n == 0:
        raise ConfigurationError("cannot sample from an empty neighbor list")
    if weights is None:
        return select_streaming(neighbors, fanout, rng)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != neighbors.shape:
        raise ConfigurationError(
            f"weights shape {weights.shape} != neighbors shape {neighbors.shape}"
        )
    if (weights < 0).any() or weights.sum() <= 0:
        raise ConfigurationError("weights must be non-negative with positive sum")
    out = np.empty(fanout, dtype=neighbors.dtype)
    for group in range(fanout):
        start = group * n // fanout
        stop = (group + 1) * n // fanout
        if stop <= start:
            start, stop = 0, n
        group_weights = weights[start:stop]
        total = group_weights.sum()
        if total <= 0:
            pick = int(rng.integers(start, stop))
        else:
            pick = start + int(
                rng.choice(stop - start, p=group_weights / total)
            )
        out[group] = neighbors[pick]
    return out


# --------------------------------------------------------------- batched
# Bucket variants: each selects for a whole ``(k, d)`` matrix of
# same-degree neighbor lists at once. They draw from the same RNG with
# the same per-row distributions as their scalar counterparts, but the
# *consumption order* differs (row-blocked instead of per node), so the
# equivalence contract with the scalar selectors is statistical, not
# stream-identical. The batched sampler runs the weighted variants
# bucket by bucket (they need per-row CDFs); the degree-only selectors
# go through the ragged pickers below, which consume the RNG exactly as
# their bucket variants called in ascending-degree order would.


def _validate_bucket(matrix: np.ndarray, fanout: int) -> None:
    if fanout <= 0:
        raise ConfigurationError(f"fanout must be positive, got {fanout}")
    if matrix.ndim != 2 or matrix.shape[1] == 0:
        raise ConfigurationError(
            f"bucket matrix must be (k, d) with d > 0, got shape {matrix.shape}"
        )


def _validate_bucket_weights(matrix: np.ndarray, weights: np.ndarray) -> np.ndarray:
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != matrix.shape:
        raise ConfigurationError(
            f"weights shape {weights.shape} != matrix shape {matrix.shape}"
        )
    if (weights < 0).any() or (weights.sum(axis=1) <= 0).any():
        raise ConfigurationError("weights must be non-negative with positive sum")
    return weights


# Canonical implementation lives with the other kernels; re-exported
# under the historical private name for the tests that call it directly.
_rowwise_weighted_picks = rowwise_weighted_picks


def select_uniform_bucket(
    matrix: np.ndarray,
    fanout: int,
    rng: np.random.Generator,
    kernels=NUMPY_KERNELS,
) -> np.ndarray:
    """Batched :func:`select_uniform`: sample each row of ``matrix``."""
    matrix = np.asarray(matrix)
    _validate_bucket(matrix, fanout)
    picks = rng.integers(0, matrix.shape[1], size=(matrix.shape[0], fanout))
    return kernels.take_picks(matrix, picks)


def select_streaming_bucket(
    matrix: np.ndarray,
    fanout: int,
    rng: np.random.Generator,
    kernels=NUMPY_KERNELS,
) -> np.ndarray:
    """Batched :func:`select_streaming`: one pick per group per row."""
    matrix = np.asarray(matrix)
    _validate_bucket(matrix, fanout)
    k, n = matrix.shape
    all_picks = np.empty((k, fanout), dtype=np.int64)
    for group in range(fanout):
        start = group * n // fanout
        stop = (group + 1) * n // fanout
        if stop <= start:
            all_picks[:, group] = rng.integers(0, n, size=k)
        else:
            all_picks[:, group] = rng.integers(start, stop, size=k)
    return kernels.take_picks(matrix, all_picks)


def select_weighted_bucket(
    matrix: np.ndarray,
    fanout: int,
    rng: np.random.Generator,
    weights: Optional[np.ndarray] = None,
    kernels=NUMPY_KERNELS,
) -> np.ndarray:
    """Batched :func:`select_weighted` over a ``(k, d)`` weight matrix."""
    matrix = np.asarray(matrix)
    _validate_bucket(matrix, fanout)
    if weights is None:
        return select_uniform_bucket(matrix, fanout, rng, kernels=kernels)
    weights = _validate_bucket_weights(matrix, weights)
    cdf = np.cumsum(weights / weights.sum(axis=1, keepdims=True), axis=1)
    draws = rng.random((matrix.shape[0], fanout))
    picks = kernels.rowwise_weighted_picks(cdf, draws)
    return kernels.take_picks(matrix, picks)


def select_streaming_weighted_bucket(
    matrix: np.ndarray,
    fanout: int,
    rng: np.random.Generator,
    weights: Optional[np.ndarray] = None,
    kernels=NUMPY_KERNELS,
) -> np.ndarray:
    """Batched :func:`select_streaming_weighted`: weighted pick per group."""
    matrix = np.asarray(matrix)
    _validate_bucket(matrix, fanout)
    if weights is None:
        return select_streaming_bucket(matrix, fanout, rng, kernels=kernels)
    weights = _validate_bucket_weights(matrix, weights)
    k, n = matrix.shape
    all_picks = np.empty((k, fanout), dtype=np.int64)
    for group in range(fanout):
        start = group * n // fanout
        stop = (group + 1) * n // fanout
        if stop <= start:
            start, stop = 0, n
        group_weights = weights[:, start:stop]
        totals = group_weights.sum(axis=1)
        picks = np.empty(k, dtype=np.int64)
        weighted = totals > 0
        if weighted.any():
            cdf = np.cumsum(
                group_weights[weighted] / totals[weighted, None], axis=1
            )
            draws = rng.random((int(weighted.sum()), 1))
            picks[weighted] = kernels.rowwise_weighted_picks(cdf, draws)[:, 0]
        if (~weighted).any():
            picks[~weighted] = rng.integers(
                0, stop - start, size=int((~weighted).sum())
            )
        all_picks[:, group] = start + picks
    return kernels.take_picks(matrix, all_picks)


# Ragged pickers: picks for rows of *different* degrees in one RNG call.
# ``sorted_degrees`` is ascending (the batched sampler's stable degree
# argsort); the result is the ``(n, fanout)`` matrix of positions into
# each row's own neighbor list. ``Generator.integers`` draws element by
# element in C order whether its bounds are scalars or broadcast arrays
# (one Lemire draw each, none when the range is a single value), so
# laying the bounds out in the order the bucket variants consume them
# makes the stream -- picks and generator end state -- bit-identical to
# calling the bucket variant once per distinct degree.


def ragged_uniform_picks(
    sorted_degrees: np.ndarray, fanout: int, rng: np.random.Generator
) -> np.ndarray:
    """:func:`select_uniform_bucket` picks for every degree bucket at once.

    The buckets draw row-major and follow each other in degree order,
    which is plain row-major over the degree-sorted rows.
    """
    return rng.integers(
        0, sorted_degrees[:, None], size=(sorted_degrees.size, fanout)
    )


def ragged_streaming_picks(
    sorted_degrees: np.ndarray, fanout: int, rng: np.random.Generator
) -> np.ndarray:
    """:func:`select_streaming_bucket` picks for every degree bucket at once.

    The buckets draw group by group (all rows of group 0, then group
    1, ...), so the flat draw order is bucket -> group -> row.
    """
    n = sorted_degrees.size
    firsts = np.flatnonzero(np.diff(sorted_degrees, prepend=-1))
    sizes = np.diff(firsts, append=n)
    degrees = sorted_degrees[firsts, None]
    groups = np.arange(fanout)
    low = degrees * groups // fanout
    high = degrees * (groups + 1) // fanout
    # Degenerate groups (degree < fanout) pick from the whole list.
    degenerate = high <= low
    low[degenerate] = 0
    high = np.where(degenerate, degrees, high)
    repeats = np.repeat(sizes, fanout)
    draws = rng.integers(
        np.repeat(low.ravel(), repeats), np.repeat(high.ravel(), repeats)
    )
    # Row i (rank r in a bucket of k rows starting at row s) finds its
    # group-g draw at s * fanout + g * k + r.
    row_sizes = np.repeat(sizes, sizes)
    row_firsts = np.repeat(firsts, sizes)
    base = row_firsts * (fanout - 1) + np.arange(n)
    return draws[base[:, None] + groups * row_sizes[:, None]]


#: Scalar selector -> its vectorized bucket variant. Custom selectors
#: without an entry fall back to per-position scalar application in the
#: batched sampler (the fetch is still amortized).
BUCKET_SELECTORS = {
    select_uniform: select_uniform_bucket,
    select_streaming: select_streaming_bucket,
    select_weighted: select_weighted_bucket,
    select_streaming_weighted: select_streaming_weighted_bucket,
}

#: Degree-only scalar selector -> its ragged picker. The weighted
#: selectors have none: they need a CDF per row, i.e. the dense bucket.
RAGGED_PICKERS = {
    select_uniform: ragged_uniform_picks,
    select_streaming: ragged_streaming_picks,
}


def get_bucket_selector(selector):
    """Bucket variant of a scalar selector, or ``None`` if unknown."""
    return BUCKET_SELECTORS.get(selector)


def get_ragged_picker(selector):
    """Ragged picker of a degree-only selector, or ``None``."""
    return RAGGED_PICKERS.get(selector)


SELECTORS = {
    "uniform": select_uniform,
    "streaming": select_streaming,
    "weighted": select_weighted,
    "streaming_weighted": select_streaming_weighted,
}


def get_selector(name: str):
    """Look up a neighbor-selection strategy by name."""
    try:
        return SELECTORS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown selector {name!r}; expected one of {sorted(SELECTORS)}"
        ) from None
