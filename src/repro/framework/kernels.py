"""Array primitives of the batched sampler hot path.

The paper's Figure 2 (and "Exploring Memory Access Patterns for Graph
Processing Accelerators") put the software sampling wall in
fine-grained, latency-bound memory access, not in FLOPs; what is left
on the host is NumPy dispatch on a handful of small primitives: hop
expansion (dense adjacency gathers), inverse-CDF weighted picks, and
segment reductions. :class:`NumpyKernels` holds them as one object so
the batched sampler reaches every primitive through a single attribute
(``MultiHopSampler.kernels``) that a timing proxy can stand in for.
Kernels consume pre-drawn uniforms and never touch the RNG.
"""

from __future__ import annotations

import math

import numpy as np


def rowwise_weighted_picks(cdf: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Inverse-CDF picks for many rows with one searchsorted call.

    ``cdf`` is ``(k, d)`` row-normalized cumulative weights in [0, 1];
    ``draws`` is ``(k, m)`` uniforms. Each row's CDF is shifted by
    ``2 * row`` so all rows live on one strictly increasing axis.

    Zero-weight entries are unpickable: ``side="right"`` skips interior
    plateaus (a draw landing exactly on a plateau value resolves past
    it), and picks are clamped to each row's *last nonzero-weight*
    index — a trailing zero-weight run produces CDF entries exactly
    equal to the row total, so a draw landing on (or rounding past) the
    final plateau must resolve to the entry that completed the mass,
    not to ``d - 1``.
    """
    k, d = cdf.shape
    shift = 2.0 * np.arange(k, dtype=np.float64)[:, None]
    flat_cdf = (cdf + shift).ravel()
    flat_draws = (draws + shift).ravel()
    picks = np.searchsorted(flat_cdf, flat_draws, side="right")
    picks = picks.reshape(draws.shape) - np.arange(k)[:, None] * d
    # First index reaching the row total == last pickable entry
    # (trailing zero weights add exactly 0.0, preserving the value).
    last_pickable = np.argmax(cdf == cdf[:, -1:], axis=1)[:, None]
    return np.clip(picks, 0, last_pickable)


class NumpyKernels:
    """The kernel object: pure NumPy.

    The replay harness (:mod:`repro.framework.replay`) states the
    accounting contract against the layers these kernels produce.
    """

    name = "numpy"
    compiled = False

    rowwise_weighted_picks = staticmethod(rowwise_weighted_picks)

    @staticmethod
    def gather_rows(
        values: np.ndarray, starts: np.ndarray, width: int
    ) -> np.ndarray:
        """Hop expansion: gather ``width`` consecutive entries per start.

        Builds the dense ``(k, width)`` bucket matrix the vectorized
        selectors consume — row ``i`` is
        ``values[starts[i] : starts[i] + width]``.
        """
        starts = np.asarray(starts, dtype=np.int64)
        return values[starts[:, None] + np.arange(width)]

    @staticmethod
    def take_picks(matrix: np.ndarray, picks: np.ndarray) -> np.ndarray:
        """Row-wise gather: ``out[i, j] = matrix[i, picks[i, j]]``."""
        return np.take_along_axis(matrix, picks, axis=1)

    @staticmethod
    def segment_sum(
        values: np.ndarray, segment_ids: np.ndarray, num_segments: int
    ) -> np.ndarray:
        """Scatter-add rows into ``num_segments`` buckets.

        ``np.add.at`` is an unbuffered scatter-add, so duplicate segment
        IDs accumulate — each bucket is the left fold ``0 + v1 + v2 +
        ...`` of its rows in occurrence order — and empty segments are
        zero. Rows wider than one element scatter through the flattened
        element index ``segment_id * width + column`` instead of row by
        row: the same additions in the same order per element, but on
        the 1-D indexed loop NumPy >= 1.25 runs several times faster
        than the row-wise form. Sort + ``np.add.reduceat`` is not an
        alternative: it associates a three-row group as ``a0 + (a1 +
        a2)``, which moves the last float32 bit the training digests pin.
        """
        out = np.zeros((num_segments,) + values.shape[1:], dtype=values.dtype)
        width = math.prod(values.shape[1:])
        if width != 1:
            segment_ids = (segment_ids[:, None] * width + np.arange(width)).reshape(-1)
        np.add.at(out.reshape(-1), segment_ids, values.reshape(-1))
        return out

    @staticmethod
    def ragged_segment_sum(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """Sum contiguous ragged segments (CSR-adjacency reduction).

        Row ``i`` covers ``values[offsets[i]:offsets[i + 1]]``; empty
        segments are zero. ``reduceat`` misbehaves on empty segments and
        rejects a start index equal to ``len(values)``, so the reduction
        runs over non-empty segments only and scatters back.
        """
        num_segments = offsets.size - 1
        out = np.zeros((num_segments,) + values.shape[1:], dtype=values.dtype)
        if values.shape[0] == 0 or num_segments == 0:
            return out
        lengths = np.diff(offsets)
        nonempty = np.flatnonzero(lengths > 0)
        if nonempty.size:
            out[nonempty] = np.add.reduceat(values, offsets[nonempty], axis=0)
        return out


#: The kernel object every sampler and GNN segment op uses.
NUMPY_KERNELS = NumpyKernels()


def compiled_available() -> bool:
    """Always ``False``: there is no compiled kernel implementation."""
    return False
