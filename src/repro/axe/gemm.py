"""Optional FP32 GEMM engine (§4.1).

"An optional FP32 general matrix-multiplication engine (GEMM) ... can
be added to the design. Although FPGA's FP32 TFlops is not competitive
with GPU or even CPU, GEMM/VPU might be useful in latency-sensitive
inference tasks with simpler model, in which case data movement from
FPGA to local or remote GPU can be eliminated."

This is a functional systolic-array model: exact FP32 results (NumPy),
a cycle model for an ``rows x cols`` MAC array with output-stationary
dataflow, and a resource estimate that scales with the array geometry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.axe.core import AXE_CLOCK_HZ
from repro.axe.resources import ResourceEstimate
from repro.units import MEGA


@dataclass(frozen=True)
class GemmConfig:
    """Systolic-array geometry (clocked at ``AXE_CLOCK_HZ``)."""

    array_rows: int = 32
    array_cols: int = 32

    def __post_init__(self) -> None:
        if self.array_rows <= 0 or self.array_cols <= 0:
            raise ConfigurationError("array dimensions must be positive")

    @property
    def macs_per_cycle(self) -> int:
        return self.array_rows * self.array_cols

    @property
    def peak_tflops(self) -> float:
        """Peak FP32 TFLOPs (2 flops per MAC)."""
        return 2 * self.macs_per_cycle * AXE_CLOCK_HZ / 1e12


class GemmEngine:
    """Output-stationary FP32 GEMM on an ``R x C`` MAC array."""

    def __init__(self, config: Optional[GemmConfig] = None) -> None:
        self.config = config or GemmConfig()
        self.total_cycles = 0
        self.total_flops = 0

    def matmul(self, a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, int]:
        """Compute ``a @ b``; returns (result, cycles).

        Tiles the (M, K) x (K, N) product over the array: each
        ``array_rows x array_cols`` output tile streams K partial sums,
        plus a fill/drain overhead of ``array_rows + array_cols``.
        """
        a = np.asarray(a, dtype=np.float32)
        b = np.asarray(b, dtype=np.float32)
        if a.ndim != 2 or b.ndim != 2:
            raise ConfigurationError("matmul operands must be 2-D")
        if a.shape[1] != b.shape[0]:
            raise ConfigurationError(
                f"inner dimensions differ: {a.shape} x {b.shape}"
            )
        m, k = a.shape
        _k, n = b.shape
        rows, cols = self.config.array_rows, self.config.array_cols
        row_tiles = -(-m // rows)
        col_tiles = -(-n // cols)
        cycles = row_tiles * col_tiles * (k + rows + cols)
        self.total_cycles += cycles
        self.total_flops += 2 * m * k * n
        return a @ b, cycles

    def time_for(self, m: int, k: int, n: int) -> float:
        """Seconds to compute an (M, K) x (K, N) product."""
        if min(m, k, n) <= 0:
            raise ConfigurationError("matrix dimensions must be positive")
        rows, cols = self.config.array_rows, self.config.array_cols
        cycles = (-(-m // rows)) * (-(-n // cols)) * (k + rows + cols)
        return cycles / AXE_CLOCK_HZ

    def achieved_tflops(self) -> float:
        """Sustained TFLOPs over everything executed so far."""
        if self.total_cycles == 0:
            return 0.0
        seconds = self.total_cycles / AXE_CLOCK_HZ
        return self.total_flops / seconds / 1e12

    def resources(self) -> ResourceEstimate:
        """FPGA resources: ~2 DSP slices per FP32 MAC plus control."""
        macs = self.config.macs_per_cycle
        return ResourceEstimate(
            clbs=macs * 0.01,
            luts=macs * 0.06,
            regs=macs * 0.12,
            bram_mb=macs * 64 * 4 / MEGA,  # tile buffers
            uram_mb=0.0,
            dsp=macs * 2.0,
        )
