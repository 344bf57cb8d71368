"""Tests for repro.perfmodel.analytical (§7.2, Equation 3 sizing)."""

import pytest

from repro.axe.core import CoreConfig
from repro.axe.engine import EngineConfig
from repro.errors import ConfigurationError
from repro.graph.datasets import get_dataset
from repro.memstore.links import get_link
from repro.perfmodel.analytical import (
    AnalyticalModel,
    HardwareWorkload,
    axe_cores_needed,
)


@pytest.fixture
def workload():
    return HardwareWorkload.from_spec(get_dataset("ls"))


def make_arch(**overrides):
    """The 4-node PoC engine: a quarter of the fetched bytes are local."""
    return EngineConfig(**{"num_fpga_nodes": 4, **overrides})


class TestHardwareWorkload:
    def test_two_hop_counts(self, workload):
        assert workload.neighbor_ops == 11
        assert workload.attr_nodes == 111

    def test_fetch_bytes_positive(self, workload):
        assert workload.fetch_bytes_per_root > workload.output_bytes_per_root * 0.5

    def test_mean_request_in_range(self, workload):
        assert 16 < workload.mean_request_bytes < workload.attr_row_bytes + 1

    def test_output_includes_ids(self, workload):
        assert workload.output_bytes_per_root == 111 * (workload.attr_row_bytes + 8)

    def test_request_shapes_come_from_the_core(self):
        core = CoreConfig(offset_read_bytes=16, id_bytes=4, line_bytes=128)
        workload = HardwareWorkload.from_spec(get_dataset("ls"), core)
        assert (workload.offset_read_bytes, workload.id_bytes, workload.line_bytes) == (
            16, 4, 128,
        )

    def test_no_attribute_variant(self):
        workload = HardwareWorkload.from_spec(
            get_dataset("ls"), CoreConfig(fetch_attributes=False)
        )
        assert workload.output_bytes_per_root == 111 * 8
        assert len(workload.requests_per_root()) == 2

    def test_lines_per_list_scales_with_degree(self):
        dense = HardwareWorkload.from_spec(get_dataset("ml"))  # deg 27.5
        sparse = HardwareWorkload.from_spec(get_dataset("ls"))  # deg 2.7
        assert dense.lines_per_list() > sparse.lines_per_list()

    def test_rejects_empty_fanouts(self):
        with pytest.raises(ConfigurationError):
            HardwareWorkload.from_spec(get_dataset("ls"), CoreConfig(fanouts=()))


class TestPredictions:
    def test_prediction_is_min_of_bounds(self, workload):
        model = AnalyticalModel()
        prediction = model.predict(make_arch(), workload)
        assert prediction.roots_per_second == min(prediction.bounds.values())
        assert prediction.bottleneck in prediction.bounds

    def test_output_bound_when_output_slow(self, workload):
        """The PoC case: plenty of memory bandwidth, PCIe output binds."""
        model = AnalyticalModel()
        arch = make_arch(num_fpga_nodes=1, remote_link=None)
        prediction = model.predict(arch, workload)
        assert prediction.bottleneck == "output"

    def test_removing_output_limit_raises_throughput(self, workload):
        model = AnalyticalModel()
        bounded = model.predict(make_arch(num_fpga_nodes=1, remote_link=None), workload)
        unbounded = model.predict(
            make_arch(num_fpga_nodes=1, remote_link=None, output_link=None),
            workload,
        )
        assert unbounded.roots_per_second > bounded.roots_per_second

    def test_more_channels_helps_when_local_bound(self, workload):
        model = AnalyticalModel()
        slow = make_arch(
            num_local_channels=1, num_fpga_nodes=1, remote_link=None,
            output_link=None,
        )
        fast = make_arch(
            num_local_channels=4, num_fpga_nodes=1, remote_link=None,
            output_link=None,
        )
        assert (
            model.predict(fast, workload).roots_per_second
            >= model.predict(slow, workload).roots_per_second
        )

    def test_remote_fraction_hurts(self, workload):
        """More remote traffic over a thin link lowers throughput."""
        model = AnalyticalModel()
        nic = get_link("rdma_remote_dram")
        local_heavy = make_arch(remote_link=nic, num_fpga_nodes=2, output_link=None)
        remote_heavy = make_arch(remote_link=nic, num_fpga_nodes=8, output_link=None)
        assert (
            model.predict(local_heavy, workload).roots_per_second
            > model.predict(remote_heavy, workload).roots_per_second
        )

    def test_batches_per_second(self, workload):
        model = AnalyticalModel()
        prediction = model.predict(make_arch(), workload)
        assert prediction.batches_per_second(512) == pytest.approx(
            prediction.roots_per_second / 512
        )


class TestEquation3Sizing:
    def test_high_latency_needs_more_cores(self, workload):
        nic = get_link("rdma_remote_dram")
        mof = get_link("mof_fabric")
        target = 12.5e9
        assert axe_cores_needed(nic, workload, target_bandwidth=target) >= (
            axe_cores_needed(mof, workload, target_bandwidth=target)
        )

    def test_paper_style_core_counts(self, workload):
        """Section 6: a few cores suffice for the NIC paths; the core
        count stays single-digit for every Table 8 path."""
        for link_name in ("rdma_remote_dram", "mof_fabric", "pcie_host_dram"):
            cores = axe_cores_needed(get_link(link_name), workload)
            assert 1 <= cores <= 12

    def test_more_tags_fewer_cores(self, workload):
        link = get_link("rdma_remote_dram")
        small = axe_cores_needed(link, workload, tags_per_core=64)
        large = axe_cores_needed(link, workload, tags_per_core=1024)
        assert small >= large

    def test_rejects_bad_tags(self, workload):
        with pytest.raises(ConfigurationError):
            axe_cores_needed(get_link("mof_fabric"), workload, tags_per_core=0)
