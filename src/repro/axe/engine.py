"""Multi-core AxE engine: decoder, scheduler, CSRs, and command execution.

The engine assembles cores, memory channels, and the output IO into one
FPGA's accelerator (Figure 5): commands from the RISC-V arrive through
the decoder, the scheduler distributes work across the homogeneous
cores, and results leave through the command/data IO channel.

Each :meth:`AxeEngine.run` call builds a fresh event simulation, so
timing statistics are per-command and deterministic.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import CommandError, ConfigurationError
from repro.axe.commands import Command, CommandKind
from repro.axe.core import AxeCore, CoreConfig
from repro.axe.events import Simulator
from repro.axe.loadunit import MemoryChannel
from repro.graph.csr import CSRGraph
from repro.graph.partition import HashPartitioner
from repro.memstore.links import LinkModel, get_link


@dataclass(frozen=True)
class EngineConfig:
    """One FPGA's accelerator configuration (Table 10 is the PoC point).

    The one description of the machine: :class:`AxeEngine` simulates it,
    :class:`~repro.axe.system.MultiCardSystem` builds ``num_fpga_nodes``
    cards of it, and :class:`~repro.perfmodel.analytical.AnalyticalModel`
    predicts from it.
    """

    num_cores: int = 2
    core: CoreConfig = dataclasses.field(default_factory=CoreConfig)
    #: Local memory path of *one channel*; the engine instantiates
    #: ``num_local_channels`` of them (4x DDR4-1600 in the PoC).
    local_link: LinkModel = dataclasses.field(
        default_factory=lambda: get_link("local_dram")
    )
    num_local_channels: int = 4
    #: Remote memory path (MoF in the PoC, NIC paths in FaaS.base).
    remote_link: Optional[LinkModel] = dataclasses.field(
        default_factory=lambda: get_link("mof_fabric")
    )
    #: Result output path (PCIe in the PoC). ``None`` = on-chip consumer.
    output_link: Optional[LinkModel] = dataclasses.field(
        default_factory=lambda: get_link("pcie_host_dram")
    )
    #: Graph shards across this many FPGA nodes; accesses to shards other
    #: than ``my_node`` use the remote path.
    num_fpga_nodes: int = 1
    my_node: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_cores <= 0:
            raise ConfigurationError(f"num_cores must be positive, got {self.num_cores}")
        if self.num_local_channels <= 0:
            raise ConfigurationError(
                f"num_local_channels must be positive, got {self.num_local_channels}"
            )
        if not 0 <= self.my_node < self.num_fpga_nodes:
            raise ConfigurationError(
                f"my_node {self.my_node} outside [0, {self.num_fpga_nodes})"
            )
        if self.num_fpga_nodes > 1 and self.remote_link is None:
            raise ConfigurationError(
                "multi-node configurations need a remote link"
            )


@dataclass
class EngineStats:
    """Timing results of one executed command."""

    elapsed_s: float
    roots: int
    events: int
    max_outstanding: int
    channel_utilization: Dict[str, float]
    channel_bytes: Dict[str, int]

    @property
    def roots_per_second(self) -> float:
        if self.elapsed_s <= 0:
            return 0.0
        return self.roots / self.elapsed_s

    def batches_per_second(self, batch_size: int = 512) -> float:
        if batch_size <= 0:
            raise ConfigurationError(f"batch_size must be positive, got {batch_size}")
        return self.roots_per_second / batch_size


class AxeEngine:
    """One FPGA's multi-core access engine."""

    def __init__(self, graph: CSRGraph, config: Optional[EngineConfig] = None) -> None:
        self.graph = graph
        self.config = config or EngineConfig()
        # Owner of every node, computed once: routing a load is a list index.
        self._owners: List[int] = HashPartitioner(
            self.config.num_fpga_nodes
        ).partition_of(np.arange(graph.num_nodes)).tolist()
        self.csr_file = np.zeros(32, dtype=np.int64)

    # ------------------------------------------------------------ plumbing
    def _build(
        self, sampler_override: Optional[str] = None, fetch_attributes: Optional[bool] = None
    ) -> Tuple[Simulator, List[AxeCore], List[MemoryChannel]]:
        sim = Simulator()
        config = self.config
        local_channels = [
            MemoryChannel(sim, config.local_link, name=f"local{i}")
            for i in range(config.num_local_channels)
        ]
        remote_channel = (
            MemoryChannel(sim, config.remote_link, name="remote")
            if config.remote_link is not None and config.num_fpga_nodes > 1
            else None
        )
        output_channel = (
            MemoryChannel(sim, config.output_link, name="output")
            if config.output_link is not None
            else None
        )
        channels = list(local_channels)
        if remote_channel is not None:
            channels.append(remote_channel)
        if output_channel is not None:
            channels.append(output_channel)

        owners, my_node = self._owners, config.my_node
        num_local = config.num_local_channels

        def router(node: int) -> MemoryChannel:
            if remote_channel is not None and owners[node] != my_node:
                return remote_channel
            return local_channels[node % num_local]

        core_config = config.core
        overrides = {}
        if sampler_override is not None:
            overrides["sampler"] = sampler_override
        if fetch_attributes is not None:
            overrides["fetch_attributes"] = fetch_attributes
        if overrides:
            core_config = dataclasses.replace(core_config, **overrides)
        cores = [
            AxeCore(
                sim,
                core_config,
                self.graph,
                router,
                output_channel=output_channel,
                seed=config.seed + 17 * i,
                core_id=i,
            )
            for i in range(config.num_cores)
        ]
        return sim, cores, channels

    @staticmethod
    def _stats(
        sim: Simulator, cores: List[AxeCore], channels: List[MemoryChannel], roots: int
    ) -> EngineStats:
        return EngineStats(
            elapsed_s=sim.now,
            roots=roots,
            events=sim.events_processed,
            max_outstanding=max(core.load_unit.max_outstanding for core in cores),
            channel_utilization={c.name: c.utilization() for c in channels},
            channel_bytes={c.name: c.stats.payload_bytes for c in channels},
        )

    # ------------------------------------------------------------ commands
    def run(self, command: Command) -> Tuple[object, EngineStats]:
        """Decode and execute one command; returns (result, stats)."""
        handlers = {
            CommandKind.SET_CSR: self._run_set_csr,
            CommandKind.READ_CSR: self._run_read_csr,
            CommandKind.SAMPLE_N_HOP: self._run_sample,
            CommandKind.READ_NODE_ATTRIBUTE: self._run_read_node_attr,
            CommandKind.READ_EDGE_ATTRIBUTE: self._run_read_edge_attr,
            CommandKind.NEGATIVE_SAMPLE: self._run_negative_sample,
        }
        handler = handlers.get(command.kind)
        if handler is None:
            raise CommandError(f"unsupported command {command.kind}")
        return handler(command)

    def _run_set_csr(self, command: Command) -> Tuple[object, EngineStats]:
        self.csr_file[command.csr_index] = command.csr_value
        return None, EngineStats(0.0, 0, 0, 0, {}, {})

    def _run_read_csr(self, command: Command) -> Tuple[object, EngineStats]:
        value = int(self.csr_file[command.csr_index])
        return value, EngineStats(0.0, 0, 0, 0, {}, {})

    def _run_sample(self, command: Command) -> Tuple[object, EngineStats]:
        config = self.config
        core_config = dataclasses.replace(
            config.core,
            fanouts=tuple(command.fanouts),
            fetch_attributes=command.with_attributes,
            fetch_edge_weights=command.with_edge_attributes,
        )
        engine_config = dataclasses.replace(config, core=core_config)
        saved, self.config = self.config, engine_config
        try:
            sim, cores, channels = self._build(sampler_override=command.method)
        finally:
            self.config = saved
        roots = command.nodes
        shards = [roots[i :: len(cores)] for i in range(len(cores))]
        done = [0]

        def on_done() -> None:
            done[0] += 1

        active_cores = []
        for core, shard in zip(cores, shards):
            if shard.size:
                core.submit(shard, on_done)
                active_cores.append(core)
        sim.run()
        if done[0] != len(active_cores):
            raise CommandError("sampling command did not complete on all cores")
        results: Dict[int, List[np.ndarray]] = {}
        for core in active_cores:
            results.update(core.results)
        return results, self._stats(sim, cores, channels, int(roots.size))

    def _run_read_node_attr(self, command: Command) -> Tuple[object, EngineStats]:
        """Fetch attribute rows for a list of nodes (no sampling)."""
        sim, cores, channels = self._build()
        core = cores[0]
        nodes = command.nodes.reshape(-1)
        row_bytes = self.graph.attr_len * 4
        if row_bytes == 0:
            raise CommandError("graph carries no node attributes")
        remaining = [int(nodes.size)]

        def one_done() -> None:
            remaining[0] -= 1

        for node in nodes:
            core.load_unit.load(core.router(int(node)), row_bytes, one_done)
        sim.run()
        if remaining[0]:
            raise CommandError("attribute reads did not drain")
        values = self.graph.attributes(nodes)
        return values, self._stats(sim, cores, channels, int(nodes.size))

    def _run_read_edge_attr(self, command: Command) -> Tuple[object, EngineStats]:
        """Fetch the edge weight for each (src, dst) pair.

        Timing: one offset read plus a coalesced ID scan per source;
        functional result is the weight (or 1.0 when the graph carries
        no edge attributes; missing edges yield NaN).
        """
        sim, cores, channels = self._build()
        core = cores[0]
        pairs = command.nodes
        remaining = [int(pairs.shape[0])]

        def one_done() -> None:
            remaining[0] -= 1

        for src, _dst in pairs:
            src = int(src)
            degree = self.graph.degree(src)
            scan_bytes = max(core.config.id_bytes, degree * core.config.id_bytes)

            def after_offsets(s=src, nbytes=scan_bytes) -> None:
                core.load_unit.load(core.router(s), nbytes, one_done)

            core.load_unit.load(
                core.router(src), core.config.offset_read_bytes, after_offsets
            )
        sim.run()
        if remaining[0]:
            raise CommandError("edge attribute reads did not drain")
        weights = np.full(pairs.shape[0], np.nan, dtype=np.float32)
        for row, (src, dst) in enumerate(pairs):
            neighbors = self.graph.neighbors(int(src))
            matches = np.flatnonzero(neighbors == int(dst))
            if matches.size:
                if self.graph.edge_attr is not None:
                    offset = int(self.graph.indptr[int(src)]) + int(matches[0])
                    weights[row] = self.graph.edge_attr[offset]
                else:
                    weights[row] = 1.0
        return weights, self._stats(sim, cores, channels, int(pairs.shape[0]))

    def _run_negative_sample(self, command: Command) -> Tuple[object, EngineStats]:
        """Sample ``rate`` non-neighbors per pair (hardware path)."""
        sim, cores, channels = self._build()
        core = cores[0]
        pairs = command.nodes
        rng = np.random.default_rng(self.config.seed)
        remaining = [int(pairs.shape[0])]
        out = np.empty((pairs.shape[0], command.rate), dtype=np.int64)

        def one_done() -> None:
            remaining[0] -= 1

        num_nodes = self.graph.num_nodes
        for row, (src, _dst) in enumerate(pairs):
            src = int(src)
            degree = self.graph.degree(src)
            scan_bytes = max(core.config.id_bytes, degree * core.config.id_bytes)
            forbidden = set(int(x) for x in self.graph.neighbors(src))
            forbidden.add(src)
            filled = 0
            while filled < command.rate:
                draw = int(rng.integers(0, num_nodes))
                if draw in forbidden and len(forbidden) < num_nodes:
                    continue
                out[row, filled] = draw
                filled += 1

            def after_offsets(s=src, nbytes=scan_bytes) -> None:
                core.load_unit.load(core.router(s), nbytes, one_done)

            core.load_unit.load(
                core.router(src), core.config.offset_read_bytes, after_offsets
            )
        sim.run()
        if remaining[0]:
            raise CommandError("negative sampling did not drain")
        return out, self._stats(sim, cores, channels, int(pairs.shape[0]))
