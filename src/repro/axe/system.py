"""Multi-card system simulation: the full 4-card PoC in one event loop.

:class:`~repro.axe.engine.AxeEngine` models one FPGA with a flat
"remote" channel; this module instantiates *all* cards of the PoC in a
shared simulation, with per-card local DDR channels, per-link fabric
channels from a :class:`~repro.mof.topology.FabricTopology`, and chained
request paths (fabric hop(s) + the owner card's DRAM). Every card both
samples its own batch shard and serves the other cards' remote reads —
the symmetric traffic the FaaS model assumes, now measured rather than
asserted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.axe.core import AxeCore
from repro.axe.engine import EngineConfig
from repro.axe.events import Simulator
from repro.axe.loadunit import MemoryChannel
from repro.graph.csr import CSRGraph
from repro.graph.partition import HashPartitioner
from repro.memstore.links import LinkModel
from repro.mof.topology import FabricTopology, full_mesh


class PathChannel:
    """A chained request path: traverse each leg in order.

    Used for remote reads: the request crosses the fabric link(s), then
    the owner card's DRAM channel, each leg paying its own serialization
    and latency.
    """

    def __init__(self, legs: List[MemoryChannel], name: str = "path") -> None:
        if not legs:
            raise ConfigurationError("a path needs at least one leg")
        self.legs = legs
        self.name = name

    def request(self, nbytes: int, callback: Callable[[], None]) -> None:
        """Issue through every leg sequentially."""
        self._advance(0, nbytes, callback)

    def _advance(self, index: int, nbytes: int, callback: Callable[[], None]) -> None:
        if index + 1 < len(self.legs):
            callback = partial(self._advance, index + 1, nbytes, callback)
        self.legs[index].request(nbytes, callback)


@dataclass
class SystemStats:
    """Results of one system-wide batch."""

    elapsed_s: float
    roots: int
    per_card_roots: List[int]
    fabric_bytes: Dict[Tuple[int, int], int]
    remote_requests: int
    local_requests: int

    @property
    def roots_per_second(self) -> float:
        if self.elapsed_s <= 0:
            return 0.0
        return self.roots / self.elapsed_s

    @property
    def remote_fraction(self) -> float:
        total = self.remote_requests + self.local_requests
        return self.remote_requests / total if total else 0.0


class MultiCardSystem:
    """All cards of the PoC in one discrete-event simulation.

    ``config`` describes every card: ``num_fpga_nodes`` cards, each with
    ``num_cores`` cores and ``num_local_channels`` local DRAM channels.
    The fabric links take their hop latency and bandwidth from
    ``topology`` and their framing from ``config.remote_link``.
    """

    def __init__(
        self,
        graph: CSRGraph,
        config: EngineConfig,
        topology: Optional[FabricTopology] = None,
    ) -> None:
        self.graph = graph
        self.config = config
        self.num_cards = config.num_fpga_nodes
        self.topology = topology or full_mesh(max(2, self.num_cards))
        if self.num_cards > 1 and self.topology.num_nodes != self.num_cards:
            raise ConfigurationError(
                f"topology has {self.topology.num_nodes} nodes, system has "
                f"{self.num_cards} cards"
            )
        self.partitioner = HashPartitioner(self.num_cards)
        self._owners: List[int] = self.partitioner.partition_of(
            np.arange(graph.num_nodes)
        ).tolist()

    def run_batch(self, roots: np.ndarray) -> SystemStats:
        """Sample a batch spread over all cards; returns system stats.

        Each root is processed by the card owning it (data-local
        dispatch); hop expansions and attribute fetches then go local
        or over the fabric according to node ownership.
        """
        roots = np.asarray(roots, dtype=np.int64)
        if roots.size == 0:
            raise ConfigurationError("cannot run an empty batch")
        config, num_cards = self.config, self.num_cards
        sim = Simulator()

        local_channels: List[List[MemoryChannel]] = [
            [
                MemoryChannel(sim, config.local_link, name=f"card{c}.local{i}")
                for i in range(config.num_local_channels)
            ]
            for c in range(num_cards)
        ]
        output_channels: List[Optional[MemoryChannel]] = [
            MemoryChannel(sim, config.output_link, name=f"card{c}.out")
            if config.output_link is not None
            else None
            for c in range(num_cards)
        ]
        # One card has no fabric (and its config may have no remote link).
        fabric_channels: Dict[Tuple[int, int], MemoryChannel] = {}
        if num_cards > 1:
            fabric_link = LinkModel(
                "fabric",
                self.topology.hop_latency_s,
                self.topology.link_bandwidth,
                packet_overhead_bytes=config.remote_link.packet_overhead_bytes,
            )
            fabric_channels = {
                link: MemoryChannel(sim, fabric_link, name=f"fab{link}")
                for link in self.topology.links
            }
        remote_counter = [0]
        local_counter = [0]
        node_owners, num_local = self._owners, config.num_local_channels

        def make_router(card: int):
            # Fabric legs of every remote owner, one path per DRAM channel.
            paths: Dict[int, List[PathChannel]] = {}
            for owner in range(num_cards):
                if owner == card:
                    continue
                hops = self.topology.shortest_path(card, owner)
                fabric = [
                    fabric_channels[(a, b) if (a, b) in fabric_channels else (b, a)]
                    for a, b in zip(hops, hops[1:])
                ]
                paths[owner] = [
                    PathChannel(fabric + [dram], name=f"card{card}->card{owner}")
                    for dram in local_channels[owner]
                ]

            def router(node: int):
                owner = node_owners[node]
                if owner == card:
                    local_counter[0] += 1
                    return local_channels[card][node % num_local]
                remote_counter[0] += 1
                return paths[owner][node % num_local]

            return router

        owners = self.partitioner.partition_of(roots)
        done = [0]
        active = 0
        per_card_roots = [0] * num_cards
        for card in range(num_cards):
            shard = roots[owners == card]
            per_card_roots[card] = int(shard.size)
            if shard.size == 0:
                continue
            active += 1
            cores = [
                AxeCore(
                    sim,
                    config.core,
                    self.graph,
                    make_router(card),
                    output_channel=output_channels[card],
                    seed=config.seed + 31 * card + core_index,
                    core_id=card * 100 + core_index,
                )
                for core_index in range(config.num_cores)
            ]
            sub_shards = [shard[i :: len(cores)] for i in range(len(cores))]
            live = [core for core, sub in zip(cores, sub_shards) if sub.size]

            def make_on_core_done(remaining):
                def on_core_done():
                    remaining[0] -= 1
                    if remaining[0] == 0:
                        done[0] += 1

                return on_core_done

            on_core_done = make_on_core_done([len(live)])

            for core, sub in zip(cores, sub_shards):
                if sub.size:
                    core.submit(sub, on_core_done)
        sim.run()
        if done[0] != active:
            raise ConfigurationError("system batch did not complete")
        return SystemStats(
            elapsed_s=sim.now,
            roots=int(roots.size),
            per_card_roots=per_card_roots,
            fabric_bytes={
                link: channel.stats.payload_bytes
                for link, channel in fabric_channels.items()
            },
            remote_requests=remote_counter[0],
            local_requests=local_counter[0],
        )
