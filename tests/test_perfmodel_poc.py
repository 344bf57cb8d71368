"""Tests for repro.perfmodel.poc (Figures 14/15).

The figures are computed once, by ``conftest.py``'s session fixtures;
``tests/test_paper_evaluation.py`` checks them against EXPERIMENTS.md.
"""

import pytest

from repro.errors import ConfigurationError
from repro.graph.datasets import instantiate_dataset
from repro.perfmodel.poc import (
    POC_SWEEP,
    PocConfigPoint,
    build_poc_engine,
    geomean_equivalence,
)


@pytest.fixture(scope="module")
def graph():
    return instantiate_dataset("ls", max_nodes=8000, seed=0)


class TestSweepDefinition:
    def test_sweep_covers_figure15_axes(self):
        assert len(POC_SWEEP) == 4 * 2 * 3  # memory x nodes x cores
        labels = {point.label for point in POC_SWEEP}
        assert "pcie/1n/1c" in labels
        assert "4-chn/4n/4c" in labels

    def test_point_validation(self):
        with pytest.raises(ConfigurationError):
            PocConfigPoint(1, "hbm", 1)
        with pytest.raises(ConfigurationError):
            PocConfigPoint(0, "pcie", 1)


def _rows_at(fig15, points):
    wanted = set(points)
    return [row for row in fig15 if row.point in wanted]


class TestValidation:
    def test_model_tracks_measurement(self, fig15):
        """Figure 15: the analytical model stays within a reasonable
        band of the event-simulated measurement on every point."""
        points = [
            PocConfigPoint(1, "pcie", 1),
            PocConfigPoint(2, "4-chn", 1),
            PocConfigPoint(2, "4-chn", 4),
            PocConfigPoint(4, "2-chn", 4),
        ]
        rows = _rows_at(fig15, points)
        assert len(rows) == len(points)
        for row in rows:
            assert row.error < 0.35

    def test_mean_error_small(self, fig15):
        rows = _rows_at(fig15, [PocConfigPoint(c, "4-chn", 1) for c in (1, 2, 4)])
        assert len(rows) == 3
        mean_error = sum(row.error for row in rows) / len(rows)
        assert mean_error < 0.25

    def test_unbounded_model_dominates(self, fig15):
        """The no-PCIe-limit bars (right y-axis of Figure 15) are always
        at or above the bounded prediction."""
        for row in fig15:
            assert row.modeled_unbounded_roots_per_s >= row.modeled_roots_per_s

    def test_most_configs_output_bottlenecked(self, fig15):
        """Section 7.2: most PoC configurations are eventually bottlenecked
        by the PCIe output bandwidth."""
        points = [PocConfigPoint(c, m, 4) for c in (2, 4) for m in ("2-chn", "4-chn")]
        rows = _rows_at(fig15, points)
        assert len(rows) == len(points)
        output_bound = sum(1 for row in rows if row.bottleneck == "output")
        assert output_bound >= len(rows) / 2


class TestBuildEngine:
    def test_pcie_config_single_channel(self, graph):
        engine = build_poc_engine(graph, PocConfigPoint(1, "pcie", 1))
        assert engine.config.num_local_channels == 1
        assert engine.config.remote_link is None

    def test_multinode_has_remote(self, graph):
        engine = build_poc_engine(graph, PocConfigPoint(1, "1-chn", 4))
        assert engine.config.remote_link is not None
        assert engine.config.num_fpga_nodes == 4

    def test_output_limit_toggle(self, graph):
        engine = build_poc_engine(
            graph, PocConfigPoint(1, "1-chn", 1), with_output_limit=False
        )
        assert engine.config.output_link is None


class TestFigure14:
    def test_equivalence_near_894(self, fig14):
        """The headline: one PoC FPGA ~ 894 vCPUs (geomean)."""
        assert len(fig14) == 6
        geomean = geomean_equivalence(fig14)
        assert 600 < geomean < 1300

    def test_each_dataset_beats_cpu_by_far(self, fig14):
        for row in fig14:
            assert row.vcpu_equivalence > 50

    def test_geomean_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            geomean_equivalence([])
