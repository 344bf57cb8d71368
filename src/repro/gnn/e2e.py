"""End-to-end LSD-GNN application time model (Figure 3).

Models the Table 3 application — graph ``ls``, 2-hop 10/10 sampling,
128-d embedding, graphSAGE-max, DSSM 128-128 end model on a 5-server /
120-worker instance — and reports the per-stage latency breakdown plus
the storage-footprint comparison (graph storage is ~5-6 orders of
magnitude larger than the NN model).

Calibration: the effective GPU throughput is far below peak because the
dense stages run small per-batch matrices (512x128-class GEMMs); the
embedding stage is modeled as a bandwidth-bound gather (plus a scatter
update when training). Training additionally expands ``negative_rate``
negatives per root, while inference scores only the positive pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import ConfigurationError
from repro.framework.cpu_model import CpuSamplingModel, WorkloadShape
from repro.graph.datasets import get_dataset
from repro.memstore.layout import FootprintModel
from repro.units import GB, GIGA, KILO


@dataclass(frozen=True)
class StageBreakdown:
    """Per-batch stage times (seconds) of the end-to-end pipeline."""

    sampling_s: float
    embedding_s: float
    nn_s: float

    @property
    def total_s(self) -> float:
        return self.sampling_s + self.embedding_s + self.nn_s

    @property
    def sampling_fraction(self) -> float:
        return self.sampling_s / self.total_s

    @property
    def nn_fraction(self) -> float:
        """Non-sampling (embedding + dense NN) share."""
        return (self.embedding_s + self.nn_s) / self.total_s

    def as_dict(self) -> Dict[str, float]:
        return {
            "sampling": self.sampling_s,
            "embedding": self.embedding_s,
            "nn": self.nn_s,
        }


class EndToEndModel:
    """Analytic per-batch time model for the Table 3 application.

    Parameters
    ----------
    dataset:
        Table 2 dataset name (the paper uses ``ls``).
    batch_size, hidden_dim, negative_rate:
        Application setup (512 / 128 / 10 in Tables 2-3).
    num_servers, worker_vcpus:
        Resource assignment (5 servers / 120 workers in Table 3).
    gpu_effective_tflops:
        Achieved GPU throughput on the small dense stages.
    embed_bandwidth:
        Memory bandwidth of the embedding gather/scatter stage.
    cpu_model:
        vCPU sampling cost model (shared with the characterization).
    """

    def __init__(
        self,
        dataset: str = "ls",
        batch_size: int = 512,
        hidden_dim: int = 128,
        negative_rate: int = 10,
        num_servers: int = 5,
        worker_vcpus: int = 120,
        gpu_effective_tflops: float = 0.9,
        embed_bandwidth: float = 90 * GB,
        cpu_model: Optional[CpuSamplingModel] = None,
    ) -> None:
        if batch_size <= 0 or hidden_dim <= 0:
            raise ConfigurationError("batch_size and hidden_dim must be positive")
        if negative_rate < 0:
            raise ConfigurationError(
                f"negative_rate must be non-negative, got {negative_rate}"
            )
        self.spec = get_dataset(dataset)
        self.batch_size = batch_size
        self.hidden_dim = hidden_dim
        self.negative_rate = negative_rate
        self.num_servers = num_servers
        self.worker_vcpus = worker_vcpus
        self.gpu_effective_tflops = gpu_effective_tflops
        self.embed_bandwidth = embed_bandwidth
        self.cpu_model = cpu_model or CpuSamplingModel()
        self.train_shape = WorkloadShape.from_spec(
            self.spec, negative_rate=negative_rate
        )
        self.infer_shape = WorkloadShape.from_spec(self.spec, negative_rate=0)

    def _shape(self, training: bool) -> WorkloadShape:
        return self.train_shape if training else self.infer_shape

    # ------------------------------------------------------------- storage
    def storage_ratio(self) -> float:
        """Graph storage bytes over NN model bytes (>=1e5 in the paper)."""
        graph_bytes = FootprintModel().report(self.spec).total_bytes
        return graph_bytes / self.nn_model_bytes()

    def nn_model_bytes(self) -> int:
        """Parameter bytes of encoder + DSSM (float32)."""
        attr = self.spec.attr_len
        h = self.hidden_dim
        sage = (attr * h + h) + ((attr + h) * h + h)  # first layer
        sage += (h * h + h) + (2 * h * h + h)  # second layer
        dssm = 2 * ((h * h + h) + (h * h + h))  # two towers, 128-128
        return 4 * (sage + dssm)

    # --------------------------------------------------------------- time
    def _nn_flops_forward(self, training: bool) -> float:
        """Dense-stage FLOPs per batch (forward only)."""
        shape = self._shape(training)
        nodes = shape.attr_nodes
        attr = self.spec.attr_len
        h = self.hidden_dim
        groups = shape.neighbor_ops  # 1 + fanout groups combined per root
        per_root = nodes * 2 * attr * h  # hop-1 pool over all nodes
        per_root += groups * 2 * (attr + h) * h  # hop-1 combine
        per_root += groups * 2 * h * h + 2 * (2 * h * h)  # hop-2 pool+combine
        pairs = 1 + (self.negative_rate if training else 0)
        dssm = pairs * 2 * (2 * h * h)
        return self.batch_size * (per_root + dssm)

    def sampling_time(self, training: bool = True) -> float:
        """Per-batch sampling time across the worker pool."""
        per_vcpu = self.cpu_model.roots_per_second(
            self._shape(training), self.num_servers
        )
        return self.batch_size / (per_vcpu * self.worker_vcpus)

    def embedding_time(self, training: bool = True) -> float:
        """Embedding stage: bandwidth-bound gather (+ scatter update)."""
        rows = self.batch_size * self._shape(training).attr_nodes
        row_bytes = self.hidden_dim * 4
        gather = rows * row_bytes / self.embed_bandwidth
        return gather * (2.0 if training else 1.0)

    def nn_time(self, training: bool) -> float:
        """Dense NN time on GPU; backward costs 2x forward."""
        flops = self._nn_flops_forward(training) * (3.0 if training else 1.0)
        return flops / (self.gpu_effective_tflops * KILO * GIGA)

    def breakdown(self, training: bool = True) -> StageBreakdown:
        """Figure 3: per-stage time breakdown for training or inference."""
        return StageBreakdown(
            sampling_s=self.sampling_time(training),
            embedding_s=self.embedding_time(training),
            nn_s=self.nn_time(training),
        )
