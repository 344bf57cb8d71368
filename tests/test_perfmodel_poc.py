"""Tests for repro.perfmodel.poc (Figures 14/15).

The figures are computed once, by ``conftest.py``'s session fixtures;
``tests/test_paper_evaluation.py`` checks them against EXPERIMENTS.md.
"""

import pytest

from repro.errors import ConfigurationError
from repro.graph.datasets import instantiate_dataset
from repro.perfmodel.analytical import AnalyticalModel
from repro.perfmodel.poc import (
    POC_SWEEP,
    PocConfigPoint,
    build_poc_engine,
    geomean_equivalence,
    validate_model,
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


#: ``float.hex`` of (measured, modeled, unbounded) and the bottleneck of
#: every Figure 15 row at ``conftest.fig15``'s parameters. A refactor of
#: the simulator or the model must leave every bit of every row equal.
GOLDEN_ROWS = {
    "pcie/1n/1c": ("0x1.6ec622b5e0e4bp+18", "0x1.93d7938bdb203p+18", "0x1.93d7938bdb203p+18", "local_mem"),
    "pcie/1n/2c": ("0x1.6272e198a6badp+18", "0x1.93d7938bdb203p+18", "0x1.93d7938bdb203p+18", "local_mem"),
    "pcie/1n/4c": ("0x1.61e4cee65d1ccp+18", "0x1.93d7938bdb203p+18", "0x1.93d7938bdb203p+18", "local_mem"),
    "pcie/4n/1c": ("0x1.8f1a68ad008f3p+18", "0x1.b71a284ee6b34p+18", "0x1.86b4da38b61c3p+20", "output"),
    "pcie/4n/2c": ("0x1.7f2e18a2a27c8p+18", "0x1.b71a284ee6b34p+18", "0x1.93d7938bdb203p+20", "output"),
    "pcie/4n/4c": ("0x1.815310018b2cep+18", "0x1.b71a284ee6b34p+18", "0x1.93d7938bdb203p+20", "output"),
    "1-chn/1n/1c": ("0x1.45ab7ca1b6b32p+18", "0x1.5df679326368ep+18", "0x1.5df679326368ep+18", "local_mem"),
    "1-chn/1n/2c": ("0x1.34b00c3589da2p+18", "0x1.5df679326368ep+18", "0x1.5df679326368ep+18", "local_mem"),
    "1-chn/1n/4c": ("0x1.466379229481dp+18", "0x1.5df679326368ep+18", "0x1.5df679326368ep+18", "local_mem"),
    "1-chn/4n/1c": ("0x1.94768a4edd958p+18", "0x1.b71a284ee6b34p+18", "0x1.5df679326368ep+20", "output"),
    "1-chn/4n/2c": ("0x1.92bafcb099cefp+18", "0x1.b71a284ee6b34p+18", "0x1.5df679326368ep+20", "output"),
    "1-chn/4n/4c": ("0x1.70d7dc2951f2fp+18", "0x1.b71a284ee6b34p+18", "0x1.5df679326368ep+20", "output"),
    "2-chn/1n/1c": ("0x1.7499d7034d612p+18", "0x1.b71a284ee6b34p+18", "0x1.5df679326368ep+19", "output"),
    "2-chn/1n/2c": ("0x1.6f66d27007f17p+18", "0x1.b71a284ee6b34p+18", "0x1.5df679326368ep+19", "output"),
    "2-chn/1n/4c": ("0x1.61b19bcde4265p+18", "0x1.b71a284ee6b34p+18", "0x1.5df679326368ep+19", "output"),
    "2-chn/4n/1c": ("0x1.99593b454a072p+18", "0x1.b71a284ee6b34p+18", "0x1.86b4da38b61c3p+20", "output"),
    "2-chn/4n/2c": ("0x1.8e1bbdaefd266p+18", "0x1.b71a284ee6b34p+18", "0x1.5df679326368ep+21", "output"),
    "2-chn/4n/4c": ("0x1.957af2857f629p+18", "0x1.b71a284ee6b34p+18", "0x1.5df679326368ep+21", "output"),
    "4-chn/1n/1c": ("0x1.963a8587a7fd8p+18", "0x1.b71a284ee6b34p+18", "0x1.5df679326368ep+20", "output"),
    "4-chn/1n/2c": ("0x1.817d2d36417b9p+18", "0x1.b71a284ee6b34p+18", "0x1.5df679326368ep+20", "output"),
    "4-chn/1n/4c": ("0x1.81459dd5b72d9p+18", "0x1.b71a284ee6b34p+18", "0x1.5df679326368ep+20", "output"),
    "4-chn/4n/1c": ("0x1.99fb4e245761dp+18", "0x1.b71a284ee6b34p+18", "0x1.86b4da38b61c3p+20", "output"),
    "4-chn/4n/2c": ("0x1.95a48024ad137p+18", "0x1.b71a284ee6b34p+18", "0x1.86b4da38b61c3p+21", "output"),
    "4-chn/4n/4c": ("0x1.99a305eedb7e0p+18", "0x1.b71a284ee6b34p+18", "0x1.bb6148a7caa7ep+21", "output"),
}


class TestGoldenRows:
    def test_every_row_bit_equal(self, fig15):
        rows = {
            row.point.label: (
                row.measured_roots_per_s.hex(),
                row.modeled_roots_per_s.hex(),
                row.modeled_unbounded_roots_per_s.hex(),
                row.bottleneck,
            )
            for row in fig15
        }
        assert rows == GOLDEN_ROWS

    def test_model_counts_every_expansion_at_three_hops(self, monkeypatch):
        """At fanouts (5, 4, 3) the engine issues 1 + 5 + 20 GetNeighbor
        ops per root; the model must be given the same count."""
        seen = []
        predict = AnalyticalModel.predict

        def spy(self, config, workload):
            seen.append(workload)
            return predict(self, config, workload)

        monkeypatch.setattr(AnalyticalModel, "predict", spy)
        graph = instantiate_dataset("ls", max_nodes=500, seed=0)
        validate_model(graph, POC_SWEEP[:1], batch_size=4, fanouts=(5, 4, 3))
        assert seen
        for workload in seen:
            assert workload.neighbor_ops == 1 + 5 + 20
            assert workload.attr_nodes == 1 + 5 + 20 + 60


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
