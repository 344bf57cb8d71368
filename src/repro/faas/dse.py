"""FaaS design-space exploration driver (Figures 17-21).

Evaluates every (architecture, instance size, dataset) point with the
analytical throughput model and the fitted cost model:

* Per-instance sampling throughput is the minimum over the local-memory
  path, the remote path (NIC quota or MoF quota), the result-output
  path, and the engine's pipeline rate. The cluster is symmetric, so
  each instance's local memory also *serves* the rest of the fleet —
  the local path carries the full fetch volume per sampled root.
* Performance per dollar divides throughput by the instance price plus
  the GPU capacity the output throughput requires (Limitation-2 rule).
* The CPU baseline runs the same workload on the instance's 2 vCPUs
  with the software stack cost model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.axe.core import AXE_CLOCK_HZ
from repro.cost.instances import (
    FAAS_CONFIGS,
    FaasInstanceConfig,
    gpu_cost_for_throughput,
)
from repro.cost.regression import CostModel, fit_cost_model
from repro.faas.arch import (
    EIGHT_ARCHITECTURES,
    FaasArchitecture,
    OutputPath,
    RemotePath,
    output_bandwidth_per_chip,
)
from repro.framework.cpu_model import CpuSamplingModel, WorkloadShape
from repro.graph.datasets import DATASET_ORDER, get_dataset
from repro.memstore.layout import FootprintModel
from repro.perfmodel.analytical import HardwareWorkload
from repro.units import GB


@dataclass(frozen=True)
class FaasResult:
    """One (architecture, size, dataset) evaluation."""

    arch: str
    size: str
    dataset: str
    roots_per_second: float  # per instance
    bottleneck: str
    num_instances: int
    instance_price: float
    gpu_price: float
    perf_per_dollar: float  # roots/s per $/hour
    vcpu_equivalent: float  # per FPGA chip

    @property
    def total_price(self) -> float:
        return self.instance_price + self.gpu_price


@dataclass(frozen=True)
class CpuBaselineResult:
    """The CPU-only baseline at one (size, dataset) point."""

    size: str
    dataset: str
    roots_per_second: float  # per instance (2 vCPUs)
    num_instances: int
    instance_price: float
    gpu_price: float
    perf_per_dollar: float

    @property
    def total_price(self) -> float:
        return self.instance_price + self.gpu_price


class FaasDse:
    """The design-space exploration engine."""

    def __init__(
        self,
        cost_model: Optional[CostModel] = None,
        cpu_model: Optional[CpuSamplingModel] = None,
        footprint: Optional[FootprintModel] = None,
        gpus_per_12gbps: float = 1.0,
        nic_efficiency: float = 1.0,
        mof_efficiency: float = 0.60,
        pcie_local_efficiency: float = 0.50,
        dram_local_efficiency: float = 0.40,
        cpu_mem_gb_per_vcpu: float = 5.0,
    ) -> None:
        self.cost_model = cost_model or fit_cost_model()
        self.cpu_model = cpu_model or CpuSamplingModel()
        self.footprint = footprint or FootprintModel()
        self.gpus_per_12gbps = gpus_per_12gbps
        #: Goodput fractions of the nominal path bandwidths: the NIC
        #: quota is already enforced on goodput (1.0), MoF pays its
        #: (small) framing, the PCIe host path pays DMA setup and host
        #: DRAM contention on random reads, and FPGA DRAM pays
        #: row-activation overheads on irregular rows.
        self.nic_efficiency = nic_efficiency
        self.mof_efficiency = mof_efficiency
        self.pcie_local_efficiency = pcie_local_efficiency
        self.dram_local_efficiency = dram_local_efficiency
        #: CPU-baseline instances use a general-purpose ~1:5 vCPU:GB
        #: shape, so a 384GB CPU instance brings ~76 sampling vCPUs
        #: (unlike FaaS instances, whose 2 vCPUs only feed the FPGA).
        self.cpu_mem_gb_per_vcpu = cpu_mem_gb_per_vcpu
        #: FPGA local DRAM per chip in mem-opt (the PoC card's 512GB).
        self.fpga_dram_bytes = 512 * GB

    # -------------------------------------------------------- sizing
    def num_instances(
        self, arch: Optional[FaasArchitecture], size: FaasInstanceConfig, dataset: str
    ) -> int:
        """Instances needed to hold the graph shards.

        ``arch=None`` means the CPU baseline (host DRAM). mem-opt keeps
        shards in FPGA local DRAM, whose capacity replaces the host
        quota.
        """
        spec = get_dataset(dataset)
        if arch is not None and arch.graph_in_fpga_dram:
            capacity = self.fpga_dram_bytes * size.fpga_chips
        else:
            capacity = size.mem_bytes
        # A distributed deployment needs at least two instances —
        # hyperscale graphs never fit one box.
        return max(2, self.footprint.min_instances(spec, capacity))

    # ---------------------------------------------------- throughput
    def instance_throughput(
        self, arch: FaasArchitecture, size: FaasInstanceConfig, dataset: str
    ) -> Dict[str, float]:
        """Per-instance throughput bounds (roots/s); min is achieved."""
        spec = get_dataset(dataset)
        workload = HardwareWorkload.from_spec(spec)
        fetch = workload.fetch_bytes_per_root
        out = workload.output_bytes_per_root
        instances = self.num_instances(arch, size, dataset)
        remote_fraction = 1.0 - 1.0 / instances

        bounds: Dict[str, float] = {}
        # Local memory serves the symmetric fleet: full fetch per root.
        local_efficiency = (
            self.dram_local_efficiency
            if arch.graph_in_fpga_dram
            else self.pcie_local_efficiency
        )
        local_bw = arch.local_bw_per_chip * size.fpga_chips * local_efficiency
        bounds["local_mem"] = local_bw / fetch
        # Remote path: NIC quota or MoF quota; decoupled output rides
        # the NIC too.
        nic_bw = size.nic_bandwidth * self.nic_efficiency
        if arch.remote_path is RemotePath.MOF:
            remote_bytes = fetch * remote_fraction
            mof_bw = size.mof_bandwidth * self.mof_efficiency
            bounds["remote_mof"] = mof_bw / remote_bytes
            if arch.output_path is OutputPath.NIC:
                bounds["output_nic"] = nic_bw / out
        else:
            nic_bytes = fetch * remote_fraction
            if arch.output_path is OutputPath.NIC:
                nic_bytes += out
            bounds["remote_nic"] = nic_bw / nic_bytes
        if arch.output_path is not OutputPath.NIC:
            bounds["output"] = (
                output_bandwidth_per_chip(arch) * size.fpga_chips / out
            )
        # Engine pipeline rate (streaming sampler, Eq. 3-sized cores).
        cycles = workload.sampling_cycles_per_root()
        bounds["engine"] = (
            arch.axe_cores * size.fpga_chips * AXE_CLOCK_HZ / cycles
        )
        return bounds

    # ----------------------------------------------------- evaluation
    def evaluate(
        self, arch: FaasArchitecture, size_name: str, dataset: str
    ) -> FaasResult:
        """Evaluate one DSE point."""
        size = _get_size(size_name)
        spec = get_dataset(dataset)
        workload = HardwareWorkload.from_spec(spec)
        bounds = self.instance_throughput(arch, size, dataset)
        bottleneck = min(bounds, key=bounds.get)
        roots = bounds[bottleneck]
        instances = self.num_instances(arch, size, dataset)

        instance_price = self.cost_model.price(
            size.vcpus, size.mem_bytes / GB, fpgas=size.fpga_chips
        )
        output_bw = roots * workload.output_bytes_per_root
        gpu_price = gpu_cost_for_throughput(
            self.cost_model, output_bw, self.gpus_per_12gbps
        )
        vcpu_rate = self.reference_vcpu_rate(dataset)
        return FaasResult(
            arch=arch.name,
            size=size.name,
            dataset=dataset,
            roots_per_second=roots,
            bottleneck=bottleneck,
            num_instances=instances,
            instance_price=instance_price,
            gpu_price=gpu_price,
            perf_per_dollar=roots / (instance_price + gpu_price),
            vcpu_equivalent=roots / size.fpga_chips / vcpu_rate,
        )

    def _cpu_roots_per_vcpu(self, size: FaasInstanceConfig, dataset: str) -> float:
        spec = get_dataset(dataset)
        shape = WorkloadShape.from_spec(spec)
        instances = self.num_instances(None, size, dataset)
        return self.cpu_model.roots_per_second(shape, instances)

    def reference_vcpu_rate(self, dataset: str) -> float:
        """The Figure 14 vCPU normalization unit: one vCPU's sampling
        rate on the physical-server deployment (min_servers), so FaaS
        equivalences are in the same units as the PoC's 894x."""
        spec = get_dataset(dataset)
        shape = WorkloadShape.from_spec(spec)
        servers = max(1, self.footprint.min_servers(spec))
        return self.cpu_model.roots_per_second(shape, servers)

    def cpu_vcpus(self, size: FaasInstanceConfig) -> int:
        """Sampling vCPUs of the CPU-baseline instance at this size."""
        return max(size.vcpus, int(size.mem_bytes / GB / self.cpu_mem_gb_per_vcpu))

    def cpu_baseline(self, size_name: str, dataset: str) -> CpuBaselineResult:
        """The CPU-only deployment at the same instance size."""
        size = _get_size(size_name)
        spec = get_dataset(dataset)
        workload = HardwareWorkload.from_spec(spec)
        per_vcpu = self._cpu_roots_per_vcpu(size, dataset)
        vcpus = self.cpu_vcpus(size)
        roots = per_vcpu * vcpus
        instances = self.num_instances(None, size, dataset)
        instance_price = self.cost_model.price(vcpus, size.mem_bytes / GB)
        output_bw = roots * workload.output_bytes_per_root
        gpu_price = gpu_cost_for_throughput(
            self.cost_model, output_bw, self.gpus_per_12gbps
        )
        return CpuBaselineResult(
            size=size.name,
            dataset=dataset,
            roots_per_second=roots,
            num_instances=instances,
            instance_price=instance_price,
            gpu_price=gpu_price,
            perf_per_dollar=roots / (instance_price + gpu_price),
        )

    # ------------------------------------------------------- sweeps
    def evaluate_all(
        self,
        architectures: Sequence[FaasArchitecture] = EIGHT_ARCHITECTURES,
        sizes: Sequence[str] = ("small", "medium", "large"),
        datasets: Sequence[str] = DATASET_ORDER,
    ) -> List[FaasResult]:
        """Figures 17/18: the full (arch x size x dataset) sweep."""
        return [
            self.evaluate(arch, size, dataset)
            for arch in architectures
            for size in sizes
            for dataset in datasets
        ]

    def cpu_baseline_all(
        self,
        sizes: Sequence[str] = ("small", "medium", "large"),
        datasets: Sequence[str] = DATASET_ORDER,
    ) -> List[CpuBaselineResult]:
        return [
            self.cpu_baseline(size, dataset) for size in sizes for dataset in datasets
        ]

    def min_service_cost(
        self, dataset: str, size_name: str, faas: bool
    ) -> float:
        """Figure 20: minimal $/hour to host the graph and run sampling.

        The minimal CPU fleet uses memory-optimized instances (1:8
        vCPU:GB) — users who "do not care about performance at all" buy
        memory, not cores.
        """
        size = _get_size(size_name)
        if faas:
            arch = EIGHT_ARCHITECTURES[1]  # base.decp
            instances = self.num_instances(arch, size, dataset)
            price = self.cost_model.price(
                size.vcpus, size.mem_bytes / GB, fpgas=size.fpga_chips
            )
        else:
            instances = self.num_instances(None, size, dataset)
            hosting_vcpus = max(size.vcpus, int(size.mem_bytes / GB / 8))
            price = self.cost_model.price(hosting_vcpus, size.mem_bytes / GB)
        return instances * price


def _get_size(size_name: str) -> FaasInstanceConfig:
    try:
        return FAAS_CONFIGS[size_name]
    except KeyError:
        raise ConfigurationError(
            f"unknown instance size {size_name!r}; expected one of "
            f"{sorted(FAAS_CONFIGS)}"
        ) from None
