"""The in-house analytical performance model (§7.2).

Predicts GNN sampling throughput of an :class:`EngineConfig` from closed
form: the engine's pipeline rate, each memory path's achievable
bandwidth (wire efficiency x concurrency limit, Equation 3), and the
result-output path. The minimum over those bounds is the prediction;
Figure 15 validates it against the event-driven PoC simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.axe.core import AXE_CLOCK_HZ, CoreConfig
from repro.axe.engine import EngineConfig
from repro.graph.datasets import DatasetSpec
from repro.memstore.links import LinkModel


@dataclass(frozen=True)
class HardwareWorkload:
    """Per-root request profile as the AxE hardware issues it.

    Unlike :class:`~repro.framework.cpu_model.WorkloadShape` (which
    counts the software store's logical accesses), this profile counts
    the hardware's actual memory requests: offset reads, coalesced
    line-sized ID reads, and attribute-row bursts. Build it with
    :meth:`from_spec`, which reads the request shapes off the core.
    """

    name: str
    neighbor_ops: int
    attr_nodes: int
    avg_degree: float
    attr_row_bytes: int
    offset_read_bytes: int
    line_bytes: int
    id_bytes: int
    fetch_attributes: bool

    @classmethod
    def from_spec(
        cls, spec: DatasetSpec, core: CoreConfig = CoreConfig()
    ) -> "HardwareWorkload":
        """The profile of ``core`` sampling ``spec``'s graph: one
        GetNeighbor per expanded node, one attribute row per node."""
        fanouts = core.fanouts
        neighbor_ops = 1
        width = 1
        total = 1
        for fanout in fanouts[:-1]:
            width *= fanout
            neighbor_ops += width
            total += width
        total += width * fanouts[-1]
        return cls(
            name=spec.name,
            neighbor_ops=neighbor_ops,
            attr_nodes=total,
            avg_degree=spec.avg_degree,
            attr_row_bytes=spec.attr_len * 4,
            offset_read_bytes=core.offset_read_bytes,
            line_bytes=core.line_bytes,
            id_bytes=core.id_bytes,
            fetch_attributes=core.fetch_attributes,
        )

    def lines_per_list(self) -> float:
        """Average line reads per neighbor list."""
        if self.avg_degree <= 0:
            return 0.0
        return max(1.0, self.avg_degree * self.id_bytes / self.line_bytes)

    def requests_per_root(self) -> List[Tuple[float, float]]:
        """(request_bytes, count) pairs per root sample."""
        requests = [
            (float(self.offset_read_bytes), float(self.neighbor_ops)),
            (float(self.line_bytes), self.neighbor_ops * self.lines_per_list()),
        ]
        if self.fetch_attributes and self.attr_row_bytes > 0:
            requests.append((float(self.attr_row_bytes), float(self.attr_nodes)))
        return requests

    @property
    def fetch_bytes_per_root(self) -> float:
        return sum(size * count for size, count in self.requests_per_root())

    @property
    def requests_count_per_root(self) -> float:
        return sum(count for _size, count in self.requests_per_root())

    @property
    def mean_request_bytes(self) -> float:
        return self.fetch_bytes_per_root / self.requests_count_per_root

    @property
    def output_bytes_per_root(self) -> float:
        """Sampled subgraph shipped out: IDs plus attribute rows."""
        per_node = self.id_bytes + (
            self.attr_row_bytes if self.fetch_attributes else 0
        )
        return float(self.attr_nodes * per_node)

    def sampling_cycles_per_root(self) -> float:
        """Streaming-sampler pipeline cycles per root (Tech-2: N cycles
        per GetNeighbor, at least K)."""
        per_op = max(self.avg_degree, 10.0)
        return self.neighbor_ops * per_op


@dataclass(frozen=True)
class ThroughputPrediction:
    """Model output: the binding bottleneck and all component bounds."""

    workload: str
    roots_per_second: float
    bottleneck: str
    bounds: Dict[str, float] = field(default_factory=dict)

    def batches_per_second(self, batch_size: int = 512) -> float:
        return self.roots_per_second / batch_size


class AnalyticalModel:
    """Closed-form throughput model of an :class:`EngineConfig`."""

    def _path_bandwidth(
        self,
        link: LinkModel,
        channels: int,
        mean_request: float,
        tags: float,
    ) -> float:
        """Achievable payload bandwidth of one memory path.

        Wire efficiency bounds it at peak x payload/(payload+overhead);
        Equation 3 (Little's law) bounds it at tags x request / latency.
        """
        mean_request = max(1.0, mean_request)
        wire = (
            channels
            * link.peak_bandwidth
            * mean_request
            / (mean_request + link.packet_overhead_bytes)
        )
        concurrency = tags * mean_request / link.latency(int(round(mean_request)))
        return min(wire, concurrency)

    def predict(
        self, config: EngineConfig, workload: HardwareWorkload
    ) -> ThroughputPrediction:
        """Throughput bound of one engine on one workload.

        The graph is hash-sharded over ``config.num_fpga_nodes`` cards,
        so ``1 / num_fpga_nodes`` of the fetched bytes are local.
        """
        fetch = workload.fetch_bytes_per_root
        local_fraction = 1.0 / config.num_fpga_nodes
        local_bytes = fetch * local_fraction
        remote_bytes = fetch - local_bytes
        mean_request = workload.mean_request_bytes
        total_tags = float(config.num_cores * config.core.max_tags)
        # Tags split across paths proportionally to their byte demand.
        local_tags = total_tags * (local_bytes / fetch) if fetch else total_tags
        remote_tags = total_tags - local_tags

        bounds: Dict[str, float] = {}
        if local_bytes > 0:
            local_bw = self._path_bandwidth(
                config.local_link, config.num_local_channels, mean_request, local_tags
            )
            bounds["local_mem"] = local_bw / local_bytes
        if remote_bytes > 0:
            remote_bw = self._path_bandwidth(
                config.remote_link, 1, mean_request, remote_tags
            )
            bounds["remote_mem"] = remote_bw / remote_bytes
        if config.output_link is not None and workload.output_bytes_per_root > 0:
            out_bytes = workload.output_bytes_per_root
            out_bw = (
                config.output_link.peak_bandwidth
                * out_bytes
                / (out_bytes + config.output_link.packet_overhead_bytes)
            )
            bounds["output"] = out_bw / out_bytes
        engine_rate = (
            config.num_cores * AXE_CLOCK_HZ / workload.sampling_cycles_per_root()
        )
        bounds["engine"] = engine_rate

        bottleneck = min(bounds, key=bounds.get)
        return ThroughputPrediction(
            workload=workload.name,
            roots_per_second=bounds[bottleneck],
            bottleneck=bottleneck,
            bounds=bounds,
        )


def axe_cores_needed(
    link: LinkModel,
    workload: HardwareWorkload,
    tags_per_core: int = CoreConfig.max_tags,
    target_bandwidth: Optional[float] = None,
) -> int:
    """Equation 3 core sizing: cores whose combined tag files hold
    enough outstanding requests to fill the link."""
    if tags_per_core <= 0:
        raise ConfigurationError(
            f"tags_per_core must be positive, got {tags_per_core}"
        )
    bandwidth = target_bandwidth or link.peak_bandwidth
    mean = workload.mean_request_bytes
    outstanding = bandwidth / mean * link.latency(int(round(mean)))
    return max(1, int(-(-outstanding // tags_per_core)))
