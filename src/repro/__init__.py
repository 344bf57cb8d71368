"""repro — reproduction of "Hyperscale FPGA-as-a-Service Architecture
for Large-Scale Distributed Graph Neural Network" (ISCA 2022).

Subpackages
-----------
graph
    CSR graph storage, synthetic generators, the Table 2 dataset
    registry, and node partitioning.
memstore
    Distributed in-memory store with footprint, link-latency, and
    outstanding-request (Eq. 3) models.
framework
    AliGraph-style sampling service: multi-hop/negative sampling,
    hot-node cache, cluster scaling, and the vCPU cost model.
gnn
    Mini-batch GNN compute (graphSAGE, DSSM) and the end-to-end
    application time model.
axe
    The Access Engine: event-driven simulation of the FIFO-pipelined,
    out-of-order, streaming-sampling accelerator.
mof
    Memory-over-Fabric: frame packing, BDI compression, fabric links
    and topologies.
riscv
    RV32I control core with the QRCH coprocessor-hub ISA extension and
    an MMIO baseline.
perfmodel
    The analytical performance model and PoC validation (Figures 14/15).
cost
    Cloud price catalog and the linear instance-cost regression.
faas
    The eight-architecture FaaS design-space exploration (Figures 17-21).
serving
    Online SLO-aware serving gateway: open-loop multi-tenant
    workloads, dynamic micro-batching, EDF scheduling with
    token-bucket fair share, load shedding, and backend failover.
"""

__version__ = "1.0.0"

from repro.errors import ReproError

__all__ = ["ReproError", "__version__"]
