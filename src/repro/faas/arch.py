"""The eight FaaS architectures of the design-space exploration (Table 8).

Two taxonomy axes: the primary design constraint (base, cost-opt,
comm-opt, mem-opt) and the FPGA/GPU coupling (tc = tightly coupled in
one server, decp = decoupled all-FPGA and all-GPU servers).

Each architecture pins down four paths per Table 8:
  * remote memory access — instance NIC (base/cost-opt) or the
    dedicated MoF fabric (comm-opt/mem-opt);
  * local memory access — PCIe-attached host DRAM or FPGA local DRAM;
  * FPGA->GPU result output — in-server PCIe P2P (tc), a high-speed
    GPU link (mem-opt.tc), or the across-server NIC (decp);
  * the AxE core count sized by Equation 3 for the path latencies.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.errors import ConfigurationError
from repro.memstore.links import get_link
from repro.units import GB, US


class RemotePath(enum.Enum):
    """How an FPGA reaches graph shards on other instances."""

    NIC = "nic"  # PCIe -> NIC -> PCIe (base), or on-FPGA NIC (cost-opt)
    MOF = "mof"  # dedicated inter-FPGA fabric


class OutputPath(enum.Enum):
    """How sampled results reach the GPU."""

    NIC = "nic"  # across-server (decoupled): shares the instance NIC
    PCIE_P2P = "pcie_p2p"  # in-server PCIe peer-to-peer, 16 GB/s/chip
    FAST_LINK = "fast_link"  # NVLink-class in-server link, 300 GB/s/chip


@dataclass(frozen=True)
class FaasArchitecture:
    """One of the eight Table 8 design points."""

    constraint: str  # base / cost-opt / comm-opt / mem-opt
    coupling: str  # tc / decp
    remote_path: RemotePath
    output_path: OutputPath
    #: Local memory bandwidth per FPGA chip (bytes/s).
    local_bw_per_chip: float
    #: Graph shards live in host DRAM or in FPGA local DRAM (mem-opt).
    graph_in_fpga_dram: bool
    #: Round-trip latency of the remote path. Descriptive only: no model
    #: reads it, and ``axe_cores`` is the paper's count, not sized from it.
    remote_latency_s: float
    #: AxE cores per chip (the paper's Eq. 3 result per architecture).
    axe_cores: int

    def __post_init__(self) -> None:
        if self.coupling not in ("tc", "decp"):
            raise ConfigurationError(f"coupling must be tc/decp, got {self.coupling}")
        if self.axe_cores <= 0:
            raise ConfigurationError(f"axe_cores must be positive, got {self.axe_cores}")
        if self.local_bw_per_chip <= 0 or self.remote_latency_s <= 0:
            raise ConfigurationError("bandwidth and latency must be positive")

    @property
    def name(self) -> str:
        return f"{self.constraint}.{self.coupling}"


_PCIE_HOST_BW = get_link("pcie_host_dram").peak_bandwidth
_FPGA_DRAM_BW = get_link("fpga_local_dram").peak_bandwidth
_MOF_LATENCY_S = get_link("mof_fabric").base_latency_s
_OUTPUT_BW = {
    OutputPath.PCIE_P2P: 16 * GB,
    OutputPath.FAST_LINK: 300 * GB,
}


def _arch(
    constraint: str,
    coupling: str,
    remote_path: RemotePath,
    local_dram: bool,
    remote_latency_s: float,
    axe_cores: int,
) -> FaasArchitecture:
    if coupling == "decp":
        output = OutputPath.NIC
    elif constraint == "mem-opt":
        output = OutputPath.FAST_LINK
    else:
        output = OutputPath.PCIE_P2P
    return FaasArchitecture(
        constraint=constraint,
        coupling=coupling,
        remote_path=remote_path,
        output_path=output,
        local_bw_per_chip=_FPGA_DRAM_BW if local_dram else _PCIE_HOST_BW,
        graph_in_fpga_dram=local_dram,
        remote_latency_s=remote_latency_s,
        axe_cores=axe_cores,
    )


#: Table 8, all eight rows. Core counts follow Sections 6.2-6.5:
#: 3 for base, 2 for cost-opt/comm-opt/mem-opt.decp, 10 for mem-opt.tc.
EIGHT_ARCHITECTURES: Tuple[FaasArchitecture, ...] = (
    _arch("base", "tc", RemotePath.NIC, False, 30 * US, 3),
    _arch("base", "decp", RemotePath.NIC, False, 30 * US, 3),
    _arch("cost-opt", "tc", RemotePath.NIC, False, 10 * US, 2),
    _arch("cost-opt", "decp", RemotePath.NIC, False, 10 * US, 2),
    _arch("comm-opt", "tc", RemotePath.MOF, False, _MOF_LATENCY_S, 2),
    _arch("comm-opt", "decp", RemotePath.MOF, False, _MOF_LATENCY_S, 2),
    _arch("mem-opt", "tc", RemotePath.MOF, True, _MOF_LATENCY_S, 10),
    _arch("mem-opt", "decp", RemotePath.MOF, True, _MOF_LATENCY_S, 2),
)

_BY_NAME: Dict[str, FaasArchitecture] = {a.name: a for a in EIGHT_ARCHITECTURES}


def get_architecture(name: str) -> FaasArchitecture:
    """Look up an architecture by ``constraint.coupling`` name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown architecture {name!r}; expected one of {sorted(_BY_NAME)}"
        ) from None


def output_bandwidth_per_chip(arch: FaasArchitecture) -> float:
    """Output-path bandwidth per chip for in-server paths.

    Decoupled architectures route output over the (shared, quota-bound)
    instance NIC, which the DSE accounts separately.
    """
    if arch.output_path is OutputPath.NIC:
        raise ConfigurationError(
            f"{arch.name} outputs over the NIC; use the instance quota"
        )
    return _OUTPUT_BW[arch.output_path]
