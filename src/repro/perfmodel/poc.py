"""PoC configuration and model validation (Tables 9/10, Figures 14/15).

The PoC stands in for the paper's 4-card FPGA system: the event-driven
AxE simulation is our "measurement", and :mod:`repro.perfmodel.analytical`
is the analytical model validated against it, exactly as Figure 15
validates the paper's model against the physical PoC.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.axe.core import CoreConfig
from repro.axe.engine import AxeEngine, EngineConfig
from repro.axe.commands import sample_command
from repro.framework.cpu_model import CpuSamplingModel, WorkloadShape
from repro.graph.csr import CSRGraph
from repro.graph.datasets import (
    DATASET_ORDER,
    DatasetSpec,
    get_dataset,
    instantiate_dataset,
)
from repro.memstore.layout import FootprintModel
from repro.memstore.links import get_link
from repro.perfmodel.analytical import AnalyticalModel, HardwareWorkload

#: Memory configurations on the Figure 15 x-axis legends.
_MEMORY_CONFIGS = {
    "pcie": ("pcie_host_dram", 1),
    "1-chn": ("local_dram", 1),
    "2-chn": ("local_dram", 2),
    "4-chn": ("local_dram", 4),
}


@dataclass(frozen=True)
class PocConfigPoint:
    """One configuration of the Figure 15 sweep."""

    num_cores: int
    memory: str  # "pcie", "1-chn", "2-chn", "4-chn"
    num_fpga_nodes: int  # 1 or 4

    def __post_init__(self) -> None:
        if self.memory not in _MEMORY_CONFIGS:
            raise ConfigurationError(
                f"unknown memory config {self.memory!r}; expected one of "
                f"{sorted(_MEMORY_CONFIGS)}"
            )
        if self.num_cores <= 0 or self.num_fpga_nodes <= 0:
            raise ConfigurationError("cores and nodes must be positive")

    @property
    def label(self) -> str:
        suffix = f"{self.num_fpga_nodes}n"
        return f"{self.memory}/{suffix}/{self.num_cores}c"


#: The sweep Figure 15 plots: cores x memory x node count.
POC_SWEEP: Tuple[PocConfigPoint, ...] = tuple(
    PocConfigPoint(cores, memory, nodes)
    for memory in ("pcie", "1-chn", "2-chn", "4-chn")
    for nodes in (1, 4)
    for cores in (1, 2, 4)
)


def build_poc_engine(
    graph: CSRGraph,
    point: PocConfigPoint,
    fanouts: Tuple[int, ...] = (10, 10),
    with_output_limit: bool = True,
) -> AxeEngine:
    """Instantiate the event-simulated engine for one sweep point."""
    link_name, channels = _MEMORY_CONFIGS[point.memory]
    config = EngineConfig(
        num_cores=point.num_cores,
        core=CoreConfig(fanouts=fanouts),
        local_link=get_link(link_name),
        num_local_channels=channels,
        remote_link=get_link("mof_fabric") if point.num_fpga_nodes > 1 else None,
        output_link=get_link("pcie_host_dram") if with_output_limit else None,
        num_fpga_nodes=point.num_fpga_nodes,
    )
    return AxeEngine(graph, config)


@dataclass(frozen=True)
class ValidationRow:
    """One Figure 15 point: measured vs modeled throughput."""

    point: PocConfigPoint
    measured_roots_per_s: float
    modeled_roots_per_s: float
    modeled_unbounded_roots_per_s: float
    bottleneck: str

    @property
    def error(self) -> float:
        """Relative model error against the measurement."""
        if self.measured_roots_per_s == 0:
            return float("inf")
        return (
            abs(self.modeled_roots_per_s - self.measured_roots_per_s)
            / self.measured_roots_per_s
        )


def validate_model(
    graph: CSRGraph,
    points: Sequence[PocConfigPoint] = POC_SWEEP,
    batch_size: int = 128,
    fanouts: Tuple[int, ...] = (10, 10),
    seed: int = 0,
) -> List[ValidationRow]:
    """Figure 15: run measurement (event sim) and model on each point.

    The model predicts from the very :class:`EngineConfig` the event
    simulation runs, on the graph's measured degree and row size.
    """
    rng = np.random.default_rng(seed)
    model = AnalyticalModel()
    shape = DatasetSpec("poc", graph.num_nodes, graph.num_edges, graph.attr_len)
    rows: List[ValidationRow] = []
    for point in points:
        engine = build_poc_engine(graph, point, fanouts=fanouts)
        roots = rng.integers(0, graph.num_nodes, size=batch_size, dtype=np.int64)
        _results, stats = engine.run(sample_command(roots, fanouts))
        config = engine.config
        workload = HardwareWorkload.from_spec(shape, config.core)
        predicted = model.predict(config, workload)
        unbounded = model.predict(
            dataclasses.replace(config, output_link=None), workload
        )
        rows.append(
            ValidationRow(
                point=point,
                measured_roots_per_s=stats.roots_per_second,
                modeled_roots_per_s=predicted.roots_per_second,
                modeled_unbounded_roots_per_s=unbounded.roots_per_second,
                bottleneck=predicted.bottleneck,
            )
        )
    return rows


@dataclass(frozen=True)
class VcpuEquivalenceRow:
    """One Figure 14 bar: a dataset's FPGA-vs-vCPU sampling ratio."""

    dataset: str
    fpga_roots_per_s: float
    vcpu_roots_per_s: float

    @property
    def vcpu_equivalence(self) -> float:
        return self.fpga_roots_per_s / self.vcpu_roots_per_s


def poc_vcpu_equivalence(
    datasets: Sequence[str] = DATASET_ORDER,
    max_nodes: int = 20_000,
    batch_size: int = 128,
    cpu_model: Optional[CpuSamplingModel] = None,
    seed: int = 0,
) -> List[VcpuEquivalenceRow]:
    """Figure 14: per-dataset PoC sampling rate vs the vCPU baseline.

    The PoC point is the Table 10 configuration: dual-core AxE, 4-channel
    DDR4 local memory, MoF remote (4-node sharding), PCIe output.
    """
    cpu_model = cpu_model or CpuSamplingModel()
    footprint = FootprintModel()
    rng = np.random.default_rng(seed)
    point = PocConfigPoint(num_cores=2, memory="4-chn", num_fpga_nodes=4)
    rows: List[VcpuEquivalenceRow] = []
    for name in datasets:
        spec = get_dataset(name)
        graph = instantiate_dataset(name, max_nodes=max_nodes, seed=seed)
        engine = build_poc_engine(graph, point)
        roots = rng.integers(0, graph.num_nodes, size=batch_size, dtype=np.int64)
        _results, stats = engine.run(sample_command(roots, (10, 10)))
        shape = WorkloadShape.from_spec(spec)
        servers = footprint.min_servers(spec)
        vcpu_rate = cpu_model.roots_per_second(shape, max(1, servers))
        rows.append(
            VcpuEquivalenceRow(
                dataset=name,
                fpga_roots_per_s=stats.roots_per_second,
                vcpu_roots_per_s=vcpu_rate,
            )
        )
    return rows


def geomean_equivalence(rows: Sequence[VcpuEquivalenceRow]) -> float:
    """Geometric-mean vCPU equivalence (the paper's 894x headline)."""
    if not rows:
        raise ConfigurationError("rows must not be empty")
    product = 1.0
    for row in rows:
        product *= row.vcpu_equivalence
    return product ** (1.0 / len(rows))
