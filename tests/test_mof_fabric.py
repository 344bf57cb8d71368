"""Tests for repro.mof.fabric."""

import pytest

from repro.errors import ConfigurationError
from repro.mof.fabric import MofFabric


class TestMofFabric:
    def test_poc_raw_bandwidth(self):
        """PoC: 3x QSFP-DD at 200Gb/s each = 75GB/s raw per card."""
        fabric = MofFabric()
        assert fabric.raw_bandwidth == pytest.approx(75e9)

    def test_effective_below_raw(self):
        fabric = MofFabric()
        assert fabric.effective_bandwidth(64) < fabric.raw_bandwidth

    def test_effective_grows_with_request_size(self):
        fabric = MofFabric()
        assert fabric.effective_bandwidth(256) > fabric.effective_bandwidth(16)

    def test_as_link(self):
        link = MofFabric().as_link(64)
        assert link.peak_bandwidth == pytest.approx(75e9)
        assert link.packet_overhead_bytes >= 4
        assert link.base_latency_s > 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MofFabric(num_qsfp=0)
        with pytest.raises(ConfigurationError):
            MofFabric(gbps_per_qsfp=0)
        with pytest.raises(ConfigurationError):
            MofFabric(base_latency_s=0)
