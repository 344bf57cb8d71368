"""Optional vector processing unit (VPU, §4.1).

"the FPGA compute units are preferable for reductions in the sampling
stages in order to reduce communication overhead, such as the case for
GCN." The VPU performs elementwise/reduction operations on attribute
vectors *before* they leave the FPGA, shrinking the sampled-subgraph
output from (nodes x attr) to (groups x attr).

Functional results are exact; timing is lanes-per-cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.axe.resources import ResourceEstimate
from repro.units import MEGA

_REDUCTIONS = {
    "sum": np.add.reduce,
    "max": np.maximum.reduce,
    "mean": None,  # handled explicitly (sum + scale)
}


@dataclass(frozen=True)
class VpuConfig:
    """Vector unit geometry."""

    lanes: int = 16

    def __post_init__(self) -> None:
        if self.lanes <= 0:
            raise ConfigurationError(f"lanes must be positive, got {self.lanes}")


class VectorUnit:
    """SIMD lanes for elementwise ops and neighborhood reductions."""

    def __init__(self, config: Optional[VpuConfig] = None) -> None:
        self.config = config or VpuConfig()
        self.total_cycles = 0

    def _elementwise_cycles(self, elements: int) -> int:
        return -(-elements // self.config.lanes)

    def elementwise(self, op: str, a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, int]:
        """Lane-parallel elementwise op; returns (result, cycles)."""
        a = np.asarray(a, dtype=np.float32)
        b = np.asarray(b, dtype=np.float32)
        if a.shape != b.shape:
            raise ConfigurationError(f"shape mismatch: {a.shape} vs {b.shape}")
        ops = {"add": np.add, "mul": np.multiply, "max": np.maximum}
        if op not in ops:
            raise ConfigurationError(
                f"unknown elementwise op {op!r}; expected one of {sorted(ops)}"
            )
        cycles = self._elementwise_cycles(a.size)
        self.total_cycles += cycles
        return ops[op](a, b), cycles

    def reduce_neighborhood(
        self, op: str, neighbors: np.ndarray
    ) -> Tuple[np.ndarray, int]:
        """Reduce (groups, fanout, attr) -> (groups, attr).

        This is the GCN-style aggregation the paper suggests running on
        the FPGA to shrink output traffic by the fanout factor.
        """
        neighbors = np.asarray(neighbors, dtype=np.float32)
        if neighbors.ndim != 3:
            raise ConfigurationError(
                f"expected (groups, fanout, attr), got shape {neighbors.shape}"
            )
        if op not in _REDUCTIONS:
            raise ConfigurationError(
                f"unknown reduction {op!r}; expected one of {sorted(_REDUCTIONS)}"
            )
        groups, fanout, attr = neighbors.shape
        # Tree reduction: fanout-1 vector ops per group.
        cycles = groups * (fanout - 1) * self._elementwise_cycles(attr)
        self.total_cycles += max(cycles, 1)
        if op == "mean":
            result = neighbors.sum(axis=1) / fanout
        else:
            result = _REDUCTIONS[op](np.swapaxes(neighbors, 0, 1))
        return result.astype(np.float32), max(cycles, 1)

    def resources(self) -> ResourceEstimate:
        """~5 DSPs and modest logic per FP32 lane."""
        lanes = self.config.lanes
        return ResourceEstimate(
            clbs=lanes * 0.15,
            luts=lanes * 0.9,
            regs=lanes * 1.6,
            bram_mb=lanes * 8 * 4 / MEGA,
            uram_mb=0.0,
            dsp=lanes * 5.0,
        )


def onfpga_aggregation_speedup(
    attr_len: int,
    fanout: int,
    output_bandwidth: float,
    batch_nodes: int,
) -> float:
    """Output-time speedup from reducing neighborhoods before PCIe.

    Without the VPU, all ``batch_nodes`` attribute rows cross the
    output link; with GCN-style on-FPGA aggregation only one reduced
    row per group does.
    """
    if min(attr_len, fanout, batch_nodes) <= 0 or output_bandwidth <= 0:
        raise ConfigurationError("all arguments must be positive")
    raw_bytes = batch_nodes * attr_len * 4
    reduced_bytes = (batch_nodes // fanout) * attr_len * 4
    if reduced_bytes == 0:
        reduced_bytes = attr_len * 4
    return (raw_bytes / output_bandwidth) / (reduced_bytes / output_bandwidth)
