"""Request and response records exchanged between workers and servers.

These mirror the AliGraph RPC surface the AxE command set (Table 4)
was designed to replace: multi-hop sampling, attribute reads, and
negative sampling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError


def nodes_per_root(fanouts: Tuple[int, ...]) -> int:
    """Total nodes touched per root (root + every sampled hop)."""
    total = 1
    layer = 1
    for fanout in fanouts:
        layer *= fanout
        total += layer
    return total


@dataclass(frozen=True)
class SampleRequest:
    """A multi-hop sampling request for a mini-batch of root nodes."""

    roots: np.ndarray
    fanouts: Tuple[int, ...]
    with_attributes: bool = True

    def __post_init__(self) -> None:
        roots = np.asarray(self.roots, dtype=np.int64)
        object.__setattr__(self, "roots", roots)
        if roots.ndim != 1 or roots.size == 0:
            raise ConfigurationError("roots must be a non-empty 1-D array")
        if not self.fanouts:
            raise ConfigurationError("fanouts must contain at least one hop")
        if any(f <= 0 for f in self.fanouts):
            raise ConfigurationError(f"fanouts must be positive, got {self.fanouts}")

    @property
    def batch_size(self) -> int:
        return int(self.roots.size)

    @property
    def num_hops(self) -> int:
        return len(self.fanouts)

    def nodes_per_root(self) -> int:
        """Total nodes touched per root (root + all sampled hops)."""
        return nodes_per_root(self.fanouts)


@dataclass(frozen=True)
class NegativeSampleRequest:
    """Sample ``rate`` non-neighbors for each (src, dst) positive pair."""

    pairs: np.ndarray
    rate: int

    def __post_init__(self) -> None:
        pairs = np.asarray(self.pairs, dtype=np.int64)
        object.__setattr__(self, "pairs", pairs)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ConfigurationError("pairs must have shape (n, 2)")
        if self.rate <= 0:
            raise ConfigurationError(f"rate must be positive, got {self.rate}")


@dataclass
class SampleResult:
    """Result of a multi-hop sampling request.

    ``layers[0]`` holds the roots; ``layers[k]`` holds the hop-``k``
    sampled node IDs with shape ``(batch, prod(fanouts[:k]))``. Sampling
    pads under-full neighborhoods by resampling with replacement, so
    layer shapes are always dense.
    """

    layers: List[np.ndarray] = field(default_factory=list)
    attributes: Optional[List[np.ndarray]] = None

    @property
    def num_hops(self) -> int:
        return max(0, len(self.layers) - 1)

    def total_nodes(self) -> int:
        """Total node occurrences across all layers."""
        return int(sum(layer.size for layer in self.layers))

    def flat_nodes(self) -> np.ndarray:
        """All node IDs in the result, flattened in layer order."""
        if not self.layers:
            return np.empty(0, dtype=np.int64)
        return np.concatenate([layer.reshape(-1) for layer in self.layers])
