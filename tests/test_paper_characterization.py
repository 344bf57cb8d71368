"""EXPERIMENTS.md's Characterization rows (Section 3): Table 2, Figs. 2(a)-(e)
and Fig. 3. Each test asserts the paper's shape and checks its row.
"""

import numpy as np
import pytest

from repro.framework.cluster import ClusterModel
from repro.framework.cpu_model import CpuSamplingModel, WorkloadShape
from repro.framework.tracing import characterize_access_mix
from repro.gnn.e2e import EndToEndModel
from repro.graph.datasets import DATASET_ORDER, get_dataset, instantiate_dataset
from repro.memstore.layout import FootprintModel
from repro.memstore.links import get_link
from repro.memstore.outstanding import outstanding_table
from repro.units import GB, TB, US, format_bytes

from tests.experiments_doc import check, joined, measured_lines

SECTION = "Characterization"
ROWS = {"table2", "fig2a", "fig2b", "fig2c", "fig2d", "fig2e", "fig3"}


def test_rows_are_the_sections_rows():
    assert set(measured_lines(SECTION)) == ROWS


def test_table2_datasets():
    def count(n):
        return f"{n / 1e9:.3g}B" if n >= 1e9 else f"{n / 1e6:.3g}M"

    check(SECTION, "table2 " + " ".join(
        f"{s.name}={count(s.num_nodes)}/{count(s.num_edges)}/{s.attr_len}"
        for s in map(get_dataset, DATASET_ORDER)
    ))


def test_fig2a_footprint():
    model = FootprintModel()
    fig2a = {name: model.report(get_dataset(name)) for name in DATASET_ORDER}
    # The biggest graph is multi-TB and needs many servers.
    assert fig2a["syn"].total_bytes > 5 * TB
    assert fig2a["syn"].min_servers >= 10
    assert fig2a["ss"].min_servers == 1
    check(SECTION, "fig2a " + " ".join(
        f"{name}={format_bytes(r.total_bytes)}/{r.min_servers}"
        for name, r in fig2a.items()
    ))


@pytest.fixture(scope="module")
def fig2b():
    shapes = [WorkloadShape.from_spec(get_dataset(n)) for n in DATASET_ORDER]
    model = ClusterModel(CpuSamplingModel(), vcpus_per_server=32)
    return model.average_scaling_curve(shapes, (1, 5, 15))


def test_fig2b_scaling(fig2b):
    # Sublinear scaling (Observation-2).
    assert fig2b[1].speedup_vs_one < 5
    assert fig2b[2].speedup_vs_one < 15
    assert fig2b[2].efficiency < fig2b[0].efficiency
    check(SECTION, f"fig2b servers={joined(p.num_servers for p in fig2b)} "
                   f"speedup={joined((p.speedup_vs_one for p in fig2b), '{:.2f}')} "
                   f"efficiency={joined((p.efficiency for p in fig2b), '{:.2f}')}")


@pytest.fixture(scope="module")
def fig2c():
    return [
        characterize_access_mix(
            instantiate_dataset(name, max_nodes=4000, seed=0), name,
            batch_size=32, num_batches=2, num_partitions=4,
        )
        for name in DATASET_ORDER
    ]


def test_fig2c_access_mix(fig2c):
    # About half the accesses are fine-grained (8-64B) structure reads.
    average = float(np.mean([r.structure_count_fraction for r in fig2c]))
    assert 0.40 < average < 0.65
    assert all(r.mean_structure_bytes < 128 for r in fig2c)
    check(SECTION, f"fig2c mean={100 * average:.1f}% " + " ".join(
        f"{r.name}={100 * r.structure_count_fraction:.1f}" for r in fig2c
    ) + f" max_struct_B={max(r.mean_structure_bytes for r in fig2c):.1f}")


@pytest.fixture(scope="module")
def fig2d():
    """``{link: {size: (latency, bandwidth at 16 outstanding)}}``, 8B-1KB."""
    table = {}
    for name in ("local_dram", "pcie_host_dram", "rdma_remote_dram"):
        link = get_link(name)
        table[name] = {
            s: (link.latency(s), link.effective_bandwidth(s, 16))
            for s in (8, 16, 32, 64, 128, 256, 1024)
        }
    return table


def test_fig2d_links(fig2d):
    local, pcie, rdma = fig2d.values()
    # Latency ordering at every size; small requests kill remote bandwidth.
    for size in local:
        assert local[size][0] < pcie[size][0] < rdma[size][0]
    ratio = rdma[1024][1] / rdma[8][1]
    assert ratio > 50
    check(SECTION, "fig2d lat_us@8B={} lat_us@1KB={} rdma_bw_1KB/8B={:.0f}x".format(
        joined((t[8][0] / US for t in fig2d.values()), "{:.2f}"),
        joined((t[1024][0] / US for t in fig2d.values()), "{:.2f}"),
        ratio,
    ))


@pytest.fixture(scope="module")
def fig2e():
    """``{link: {target bandwidth: requests in flight}}``, 16-200GB/s."""
    mix = WorkloadShape.from_spec(get_dataset("ls")).access_mix
    names = ("local_dram", "pcie_host_dram", "mof_fabric", "rdma_remote_dram")
    targets = [x * GB for x in (16, 32, 64, 100, 200)]
    return outstanding_table([get_link(n) for n in names], targets, mix)


def test_fig2e_outstanding(fig2e):
    # Longer-latency links need far more requests in flight, and demand
    # grows with the bandwidth target.
    targets = list(fig2e["local_dram"])
    for target in targets:
        assert (
            fig2e["rdma_remote_dram"][target]
            > fig2e["mof_fabric"][target]
            > fig2e["local_dram"][target]
        )
    assert fig2e["rdma_remote_dram"][targets[0]] > 100
    low, high = targets[0], targets[-1]
    check(SECTION, "fig2e " + " ".join(
        f"{name.split('_')[0]}={row[low]:.0f}..{row[high]:.0f}"
        for name, row in fig2e.items()
    ))


def test_fig3_e2e_breakdown():
    model = EndToEndModel()
    train, infer = model.breakdown(training=True), model.breakdown(training=False)
    # Sampling dominates both phases, more at inference; the storage gap
    # is huge.
    assert 0.55 < train.sampling_fraction < 0.75
    assert 0.78 < infer.sampling_fraction < 0.95
    assert infer.sampling_fraction > train.sampling_fraction
    assert model.storage_ratio() > 1e5
    check(
        SECTION,
        f"fig3 train={100 * train.sampling_fraction:.1f}% "
        f"infer={100 * infer.sampling_fraction:.1f}% "
        f"storage_ratio={model.storage_ratio():.2e}",
    )
