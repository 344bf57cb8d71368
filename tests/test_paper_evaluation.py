"""EXPERIMENTS.md's Evaluation rows (Section 7): Figs. 14-21, Limitation-2,
the serving load sweep and Challenge-1. Each test asserts the paper's shape
and checks its row. Figs. 14 and 15 come from ``conftest.py``'s session
fixtures, which ``test_perfmodel_poc.py`` shares.
"""

import pytest

from repro.api import GnnSession
from repro.cost.regression import validate_cost_model
from repro.faas.dse import FaasDse
from repro.faas.report import arch_geomeans, arch_perf_geomeans, geomean
from repro.graph.datasets import DATASET_ORDER, instantiate_dataset
from repro.graph.generators import power_law_graph
from repro.perfmodel.poc import geomean_equivalence
from repro.serving import SoftwareBackend, default_tenants, serve_closed_loop

from tests.experiments_doc import check, measured_lines

SECTION = "Evaluation"
ROWS = {
    "fig14", "fig15", "fig16", "fig17", "fig21", "fig19-comm", "fig19-mem",
    "fig19-tc", "fig20", "limitation2", "serving", "challenge1",
}
SIZES = ("small", "medium", "large")


def test_rows_are_the_sections_rows():
    assert set(measured_lines(SECTION)) == ROWS


def test_fig14_poc_vs_vcpu(fig14):
    vcpus = geomean_equivalence(fig14)
    # Every dataset beats a vCPU by orders of magnitude; the geomean lands
    # near the paper's 894.
    assert len(fig14) == 6
    assert all(row.vcpu_equivalence > 100 for row in fig14)
    assert 600 < vcpus < 1300
    check(SECTION, f"fig14 geomean={vcpus:.0f} " + " ".join(
        f"{row.dataset}={row.vcpu_equivalence:.0f}" for row in fig14
    ))


def test_fig15_model_validation(fig15):
    errors = [row.error for row in fig15]
    mean_error = sum(errors) / len(errors)
    output_bound = sum(row.bottleneck == "output" for row in fig15)
    # The model tracks the event simulation on all 24 points, the
    # no-PCIe-limit projection always dominates, and most points are
    # PCIe-output-bound, as the paper's PoC is (Section 7.2).
    assert len(fig15) == 24
    assert mean_error < 0.20
    assert max(errors) < 0.25
    assert all(r.modeled_unbounded_roots_per_s >= r.modeled_roots_per_s for r in fig15)
    assert output_bound >= len(fig15) / 2
    check(SECTION, f"fig15 mean_err={100 * mean_error:.1f}% "
                   f"max_err={100 * max(errors):.1f}% "
                   f"output_bound={output_bound}/{len(fig15)}")


def test_fig16_cost_model():
    rows = {row.product_id: row for row in validate_cost_model()}
    outlier = rows.pop("ecs-re-x")
    # Small errors everywhere, and the linear model under-estimates the
    # large-memory instance.
    assert all(row.error < 0.15 for row in rows.values())
    assert outlier.predicted < outlier.listed
    signed = outlier.predicted / outlier.listed - 1
    check(SECTION, f"fig16 ecs-re-x={100 * signed:+.2f}% "
                   f"max_other={100 * max(row.error for row in rows.values()):.2f}%")


@pytest.fixture(scope="module")
def faas():
    """The default DSE, its sweep, and geomean perf (Fig. 19) and perf/$ (Fig. 21)."""
    dse = FaasDse()
    results = dse.evaluate_all()
    ppd = arch_geomeans(results, dse.cpu_baseline_all())
    return dse, results, arch_perf_geomeans(results), ppd


def test_fig17_19_performance(faas):
    _dse, results, perf, _ppd = faas
    vcpus = {
        arch: geomean([r.vcpu_equivalent for r in results if r.arch == arch])
        for arch in ("base.decp", "base.tc")
    }
    # cost-opt changes no performance; mem-opt.decp gains nothing over
    # comm-opt.decp (the NIC output binds both).
    assert perf["cost-opt.tc"] == perf["base.tc"]
    assert perf["mem-opt.decp"] == perf["comm-opt.decp"]
    assert 2.0 < perf["comm-opt.tc"] / perf["base.tc"] < 4.5
    assert 2.0 < perf["mem-opt.tc"] / perf["comm-opt.tc"] < 6.0
    assert 45 < vcpus["base.decp"] < 100  # paper: ~67 vCPUs per FPGA
    check(SECTION, "fig17 " + " ".join(f"{a}={v:.1f}" for a, v in vcpus.items()))
    comm = perf["comm-opt.tc"] / perf["base.tc"]
    check(SECTION, f"fig19-comm comm-opt.tc/base.tc={comm:.2f}x")
    mem = perf["mem-opt.tc"] / perf["comm-opt.tc"]
    check(SECTION, f"fig19-mem mem-opt.tc/comm-opt.tc={mem:.2f}x")
    check(SECTION, "fig19-tc tc/decp=" + "/".join(
        f"{perf[f'{opt}.tc'] / perf[f'{opt}.decp']:.2f}x"
        for opt in ("cost-opt", "comm-opt", "mem-opt")
    ))


def test_fig18_21_perf_per_dollar(faas):
    ppd = faas[3]
    # Every architecture beats the CPU baseline; the headline numbers
    # hold within a modest band.
    assert all(value > 1.0 for value in ppd.values())
    assert 1.4 < ppd["base.decp"] < 3.5
    assert 2.8 < ppd["base.tc"] < 5.5
    assert 5.5 < ppd["comm-opt.tc"] < 10.5
    assert 9.0 < ppd["mem-opt.tc"] < 17.0
    assert max(ppd, key=ppd.get) == "mem-opt.tc"
    check(SECTION, "fig21 " + " ".join(
        f"{arch}={ppd[arch]:.2f}"
        for arch in ("base.decp", "base.tc", "comm-opt.tc", "mem-opt.tc")
    ))


def test_fig20_min_cost(faas):
    dse = faas[0]
    cost = {
        (size, dataset, host): dse.min_service_cost(dataset, size, faas=host == "faas")
        for size in SIZES for dataset in DATASET_ORDER for host in ("cpu", "faas")
    }
    # FaaS hosting always costs more than CPU hosting, so CPU is the
    # cheapest host when performance does not matter; cost grows with
    # the graph's footprint.
    for size in SIZES:
        for dataset in DATASET_ORDER:
            assert cost[(size, dataset, "faas")] > cost[(size, dataset, "cpu")]
        assert cost[(size, "syn", "cpu")] > cost[(size, "ss", "cpu")]
    assert cost[("small", "ml", "cpu")] < cost[("small", "ml", "faas")]
    check(SECTION, "fig20 ss_faas/cpu=" + "/".join(
        f"{cost[(size, 'ss', 'faas')] / cost[(size, 'ss', 'cpu')]:.2f}x"
        for size in SIZES
    ))


def test_limitation2_gpu_rule(faas):
    rich = faas[3]["mem-opt.tc"]  # the default: one V100 per 12GB/s
    dse = FaasDse(gpus_per_12gbps=10.0)
    poor = arch_geomeans(dse.evaluate_all(), dse.cpu_baseline_all())["mem-opt.tc"]
    assert poor < 0.4 * rich
    assert poor > 0.8  # still competitive with the CPU
    check(SECTION, f"limitation2 mem-opt.tc={rich:.2f}x->{poor:.2f}x")


@pytest.fixture(scope="module")
def serving():
    """Offered load at 1x, 2x and 4x the three default tenants' rates."""
    graph = instantiate_dataset("ls", max_nodes=3000, seed=0)
    session = GnnSession(graph, num_partitions=4, seed=0)
    tenants = default_tenants(0.4)
    return tenants, {
        factor: session.serve(
            tenants=[spec.overloaded(factor) for spec in tenants],
            duration_s=0.4, functional=False, seed=7,
        )
        for factor in (1.0, 2.0, 4.0)
    }


def test_serving_load_sweep(serving):
    tenants, reports = serving
    baseline, overload = reports[1.0], reports[4.0]
    # The provisioned load is admitted under SLO with coalescing; 4x
    # overload sheds instead of letting the admitted tail blow up, and
    # coalesces more, not less.
    assert baseline.shed_rate < 0.05
    assert baseline.mean_batch_occupancy > 1.0
    assert all(baseline.tenants[t.name].p99 < t.slo_s for t in tenants)
    assert overload.shed_rate > 0.2
    assert overload.completed == overload.admitted
    assert overload.p99 < 10 * baseline.p99 + 20e-3
    assert overload.mean_batch_occupancy >= baseline.mean_batch_occupancy
    check(SECTION, "serving load=1x/2x/4x shed={} p99_ms={} occupancy={}".format(
        "/".join(f"{100 * r.shed_rate:.1f}%" for r in reports.values()),
        "/".join(f"{1e3 * r.p99:.3f}" for r in reports.values()),
        "/".join(f"{r.mean_batch_occupancy:.2f}" for r in reports.values()),
    ))


def test_challenge1_latency():
    graph = power_law_graph(1000, 5.0, seed=0)
    sampler = GnnSession(graph, num_partitions=4, seed=0).sampler
    backends = [SoftwareBackend(sampler, functional=False)]
    quiet = serve_closed_loop(backends, 1, 6, num_nodes=graph.num_nodes)
    loaded = serve_closed_loop(
        backends, 32, 3, num_nodes=graph.num_nodes, slo_s=1.2 * quiet.p99
    )
    # Latency cannot be bought with throughput: a deadline the quiet
    # system meets is missed under load.
    assert loaded.p99 > 2 * quiet.p99
    assert loaded.slo_miss_rate > 0.3
    check(SECTION, f"challenge1 p99_ms={1e3 * quiet.p99:.2f}/{1e3 * loaded.p99:.2f} "
                   f"missed={100 * loaded.slo_miss_rate:.0f}%")
