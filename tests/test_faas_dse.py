"""Tests for repro.faas.dse — the headline FaaS conclusions."""

import dataclasses
import hashlib

import pytest

from repro.errors import ConfigurationError
from repro.faas.arch import EIGHT_ARCHITECTURES, get_architecture
from repro.faas.dse import FaasDse
from repro.faas.report import (
    arch_geomeans,
    arch_perf_geomeans,
    format_min_cost_table,
    format_perf_per_dollar_table,
    format_perf_table,
    geomean,
    normalized_perf_per_dollar,
)


@pytest.fixture(scope="module")
def dse():
    return FaasDse()


@pytest.fixture(scope="module")
def results(dse):
    return dse.evaluate_all()


@pytest.fixture(scope="module")
def cpu_results(dse):
    return dse.cpu_baseline_all()


@pytest.fixture(scope="module")
def perf_geo(results):
    return arch_perf_geomeans(results)


@pytest.fixture(scope="module")
def ppd_geo(results, cpu_results):
    return arch_geomeans(results, cpu_results)


def _hexed(value):
    """Every float of a result record by ``float.hex``, field by field."""
    if isinstance(value, float):
        return value.hex()
    if dataclasses.is_dataclass(value):
        return [(f.name, _hexed(getattr(value, f.name))) for f in dataclasses.fields(value)]
    return value


#: SHA-256 over every field of every Figures 17-21 record (the FaaS sweep
#: and the CPU baseline). A refactor of the model must leave it equal.
GOLDEN_DSE_DIGEST = "73f6d3246c7c158ea4c09027b78093129ed0f34e6a71f63adf0cea204e5f9eb3"


def test_dse_records_bit_equal(results, cpu_results):
    records = [_hexed(record) for record in results + cpu_results]
    assert hashlib.sha256(repr(records).encode()).hexdigest() == GOLDEN_DSE_DIGEST


class TestSweepStructure:
    def test_full_sweep_size(self, results):
        assert len(results) == 8 * 3 * 6

    def test_cpu_sweep_size(self, cpu_results):
        assert len(cpu_results) == 3 * 6

    def test_all_positive(self, results):
        for result in results:
            assert result.roots_per_second > 0
            assert result.perf_per_dollar > 0
            assert result.total_price > 0


class TestHeadlineNumbers:
    def test_base_decp_perf_per_dollar(self, ppd_geo):
        """Paper: off-the-shelf FaaS.base gives ~2.47x perf/$ (decp)."""
        assert 1.4 < ppd_geo["base.decp"] < 3.5

    def test_base_tc_perf_per_dollar(self, ppd_geo):
        """Paper: ~4.11x for base.tc."""
        assert 2.8 < ppd_geo["base.tc"] < 5.5

    def test_comm_opt_tc_perf_per_dollar(self, ppd_geo):
        """Paper: ~7.78x for comm-opt.tc."""
        assert 5.5 < ppd_geo["comm-opt.tc"] < 10.5

    def test_mem_opt_tc_perf_per_dollar(self, ppd_geo):
        """Paper: ~12.58x for mem-opt.tc."""
        assert 9.0 < ppd_geo["mem-opt.tc"] < 17.0

    def test_ordering_matches_paper(self, ppd_geo):
        assert (
            ppd_geo["base.decp"]
            < ppd_geo["base.tc"]
            < ppd_geo["comm-opt.tc"]
            < ppd_geo["mem-opt.tc"]
        )

    def test_cost_opt_equals_base_performance(self, perf_geo):
        """Paper: cost-opt brings no user-visible perf change."""
        assert perf_geo["cost-opt.tc"] == pytest.approx(perf_geo["base.tc"])
        assert perf_geo["cost-opt.decp"] == pytest.approx(perf_geo["base.decp"])

    def test_mem_opt_decp_equals_comm_opt_decp(self, perf_geo):
        """Paper: mem-opt.decp gains nothing — NIC output binds."""
        assert perf_geo["mem-opt.decp"] == pytest.approx(perf_geo["comm-opt.decp"])

    def test_comm_opt_tc_speedup_over_base(self, perf_geo):
        """Paper: ~2.9x extra performance for comm-opt.tc."""
        ratio = perf_geo["comm-opt.tc"] / perf_geo["base.tc"]
        assert 2.0 < ratio < 4.5

    def test_mem_opt_tc_speedup_over_comm(self, perf_geo):
        """Paper: ~3.0x on top of comm-opt.tc."""
        ratio = perf_geo["mem-opt.tc"] / perf_geo["comm-opt.tc"]
        assert 2.0 < ratio < 6.0

    def test_tc_benefit_grows_with_optimization(self, perf_geo):
        """Paper: tc/decp benefit grows 1.9x -> 3.5x -> 16.6x."""
        base = perf_geo["base.tc"] / perf_geo["base.decp"]
        comm = perf_geo["comm-opt.tc"] / perf_geo["comm-opt.decp"]
        mem = perf_geo["mem-opt.tc"] / perf_geo["mem-opt.decp"]
        assert base < comm < mem
        assert mem > 7

    def test_vcpu_equivalents(self, results):
        """Paper: one FPGA ~ 67 vCPU (decp) / ~129.6 vCPU (tc) in base."""
        decp = geomean(
            [r.vcpu_equivalent for r in results if r.arch == "base.decp"]
        )
        tc = geomean([r.vcpu_equivalent for r in results if r.arch == "base.tc"])
        assert 45 < decp < 100
        assert 100 < tc < 260
        assert tc > decp


class TestScaling:
    def test_larger_instances_faster(self, dse):
        arch = get_architecture("base.decp")
        small = dse.evaluate(arch, "small", "ls").roots_per_second
        medium = dse.evaluate(arch, "medium", "ls").roots_per_second
        large = dse.evaluate(arch, "large", "ls").roots_per_second
        assert small < medium < large

    def test_bigger_graphs_favor_faas(self, results):
        """Paper: FaaS advantage grows with graph footprint — the small
        one-server graphs (ss/sl/ml) show weak per-vCPU improvement,
        the multi-terabyte ones (ls/ll/syn) show strong improvement."""

        def equivalence(dataset):
            return geomean(
                [
                    r.vcpu_equivalent
                    for r in results
                    if r.arch == "base.decp" and r.dataset == dataset
                ]
            )

        small_graphs = geomean([equivalence(d) for d in ("ss", "sl", "ml")])
        big_graphs = geomean([equivalence(d) for d in ("ls", "ll", "syn")])
        assert big_graphs > 1.3 * small_graphs


class TestGpuSensitivity:
    def test_limitation2_offsets_benefit(self):
        """Limitation-2: with 10 V100 per 12GB/s, mem-opt.tc's perf/$
        benefit collapses towards ~1.5x."""
        rich = FaasDse(gpus_per_12gbps=1.0)
        poor = FaasDse(gpus_per_12gbps=10.0)
        rich_geo = arch_geomeans(rich.evaluate_all(), rich.cpu_baseline_all())
        poor_geo = arch_geomeans(poor.evaluate_all(), poor.cpu_baseline_all())
        assert poor_geo["mem-opt.tc"] < 0.4 * rich_geo["mem-opt.tc"]


class TestCostSide:
    def test_faas_service_costs_more_than_cpu(self, dse):
        """Figure 20: the FaaS fleet costs more than the CPU fleet to
        merely host the same graph."""
        for dataset in ("ss", "ml", "syn"):
            cpu = dse.min_service_cost(dataset, "small", faas=False)
            faas = dse.min_service_cost(dataset, "small", faas=True)
            assert faas > cpu

    def test_cost_grows_with_graph(self, dse):
        assert dse.min_service_cost("syn", "small", faas=False) > (
            dse.min_service_cost("ss", "small", faas=False)
        )

    def test_limitation3_same_faas_instance_price(self, results):
        """Limitation-3: all eight architectures carry the same instance
        price at a given size."""
        by_size = {}
        for result in results:
            by_size.setdefault((result.size, result.dataset), set()).add(
                round(result.instance_price, 6)
            )
        for prices in by_size.values():
            assert len(prices) == 1


class TestReports:
    def test_perf_table_renders(self, results):
        text = format_perf_table(results)
        assert "base.decp" in text and "syn" in text

    def test_ppd_table_renders(self, results, cpu_results):
        text = format_perf_per_dollar_table(results, cpu_results)
        assert "mem-opt.tc" in text

    def test_min_cost_table_renders(self, dse):
        text = format_min_cost_table(dse)
        assert "cpu" in text and "faas" in text

    def test_geomean_errors(self):
        with pytest.raises(ConfigurationError):
            geomean([])
        with pytest.raises(ConfigurationError):
            geomean([1.0, -1.0])

    def test_evaluate_rejects_unknown_size(self, dse):
        with pytest.raises(ConfigurationError):
            dse.evaluate(EIGHT_ARCHITECTURES[0], "xl", "ls")
