"""Tests for repro.axe.gemm and repro.axe.vpu (the optional engines)."""

import numpy as np
import pytest

from repro.axe.core import AXE_CLOCK_HZ
from repro.axe.gemm import GemmConfig, GemmEngine
from repro.axe.resources import VU13P_TOTALS, engine_resources, utilization
from repro.axe.vpu import VectorUnit, VpuConfig, onfpga_aggregation_speedup
from repro.errors import ConfigurationError
from repro.units import GB


class TestGemmEngine:
    def test_exact_results(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((17, 23)).astype(np.float32)
        b = rng.standard_normal((23, 9)).astype(np.float32)
        result, cycles = GemmEngine().matmul(a, b)
        assert np.allclose(result, a @ b, atol=1e-4)
        assert cycles > 0

    def test_cycle_model_tiles(self):
        engine = GemmEngine(GemmConfig(array_rows=8, array_cols=8))
        _r, cycles = engine.matmul(np.zeros((16, 32)), np.zeros((32, 16)))
        # 2x2 tiles, each k + rows + cols = 48 cycles.
        assert cycles == 4 * 48

    def test_partial_tile_rounds_up(self):
        engine = GemmEngine(GemmConfig(array_rows=8, array_cols=8))
        _r, cycles = engine.matmul(np.zeros((9, 4)), np.zeros((4, 9)))
        assert cycles == 4 * (4 + 16)

    def test_peak_tflops(self):
        config = GemmConfig(array_rows=32, array_cols=32)
        assert config.peak_tflops == pytest.approx(0.512)

    def test_achieved_below_peak(self):
        engine = GemmEngine()
        engine.matmul(np.zeros((64, 64)), np.zeros((64, 64)))
        assert 0 < engine.achieved_tflops() <= engine.config.peak_tflops

    def test_fpga_not_competitive_with_gpu(self):
        """§4.1: FPGA FP32 TFLOPs are not competitive with a GPU —
        the biggest array that fits the VU13P stays far below 14 TFLOPs."""
        config = GemmConfig(array_rows=64, array_cols=64)
        gemm_resources = GemmEngine(config).resources()
        total = engine_resources(2, 3) + gemm_resources
        util = utilization(total)
        assert all(value < 1.0 for value in util.values())  # it fits...
        assert config.peak_tflops < 3.0  # ...but is no GPU

    def test_time_for(self):
        engine = GemmEngine(GemmConfig(array_rows=8, array_cols=8))
        # 8 + 10 + 8 cycles at the AxE clock.
        assert engine.time_for(8, 10, 8) == pytest.approx(26 / AXE_CLOCK_HZ)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            GemmConfig(array_rows=0)
        engine = GemmEngine()
        with pytest.raises(ConfigurationError):
            engine.matmul(np.zeros((2, 3)), np.zeros((4, 2)))
        with pytest.raises(ConfigurationError):
            engine.matmul(np.zeros(3), np.zeros(3))
        with pytest.raises(ConfigurationError):
            engine.time_for(0, 1, 1)


class TestVectorUnit:
    def test_elementwise_exact(self):
        vpu = VectorUnit()
        a = np.arange(10, dtype=np.float32)
        b = np.ones(10, dtype=np.float32)
        result, cycles = vpu.elementwise("add", a, b)
        assert np.allclose(result, a + 1)
        assert cycles == 1  # 10 elements over 16 lanes

    def test_elementwise_cycles_scale(self):
        vpu = VectorUnit(VpuConfig(lanes=4))
        _r, cycles = vpu.elementwise("mul", np.zeros(40), np.zeros(40))
        assert cycles == 10

    def test_reduce_sum(self):
        vpu = VectorUnit()
        x = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
        result, _cycles = vpu.reduce_neighborhood("sum", x)
        assert np.allclose(result, x.sum(axis=1))

    def test_reduce_max_and_mean(self):
        vpu = VectorUnit()
        x = np.random.default_rng(0).standard_normal((3, 5, 8)).astype(np.float32)
        max_result, _c = vpu.reduce_neighborhood("max", x)
        mean_result, _c = vpu.reduce_neighborhood("mean", x)
        assert np.allclose(max_result, x.max(axis=1))
        assert np.allclose(mean_result, x.mean(axis=1), atol=1e-6)

    def test_reduce_cycle_model(self):
        vpu = VectorUnit(VpuConfig(lanes=8))
        x = np.zeros((4, 10, 16), dtype=np.float32)
        _r, cycles = vpu.reduce_neighborhood("sum", x)
        assert cycles == 4 * 9 * 2  # groups * (fanout-1) * ceil(16/8)

    def test_validation(self):
        vpu = VectorUnit()
        with pytest.raises(ConfigurationError):
            vpu.elementwise("div", np.zeros(2), np.zeros(2))
        with pytest.raises(ConfigurationError):
            vpu.elementwise("add", np.zeros(2), np.zeros(3))
        with pytest.raises(ConfigurationError):
            vpu.reduce_neighborhood("sum", np.zeros((2, 2)))
        with pytest.raises(ConfigurationError):
            vpu.reduce_neighborhood("median", np.zeros((1, 2, 3)))
        with pytest.raises(ConfigurationError):
            VpuConfig(lanes=0)


class TestOnFpgaAggregation:
    def test_reduction_shrinks_output_by_fanout(self):
        """The paper's GCN argument: reducing on-FPGA cuts output
        traffic (and hence PCIe time) by the fanout."""
        speedup = onfpga_aggregation_speedup(
            attr_len=128, fanout=10, output_bandwidth=16 * GB, batch_nodes=1000
        )
        assert speedup == pytest.approx(10.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            onfpga_aggregation_speedup(0, 10, 1.0, 10)

    def test_vpu_fits_alongside_engine(self):
        total = engine_resources(2, 3) + VectorUnit().resources()
        assert all(v < 1.0 for v in utilization(total).values())
