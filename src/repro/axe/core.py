"""One AxE core: the per-root sampling state machine (Figure 5/6).

A core processes a window of root tasks concurrently. Each root walks
the GetNeighbor -> GetSample -> GetAttribute chain; every memory
operation goes through the core's out-of-order load unit onto the
engine-provided memory channels, and results are released in root
order through an ordering scoreboard before being written to the
output IO channel.

Timing is event-driven; functional sampling uses the same selection
strategies as the software reference, so correctness can be checked
against :class:`~repro.framework.sampler.MultiHopSampler`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.axe.cache import CoalescingCache
from repro.axe.events import Simulator
from repro.axe.loadunit import LoadUnit, MemoryChannel
from repro.axe.sampling import ReservoirSampler, StreamingSampler
from repro.axe.scoreboard import OrderingScoreboard
from repro.graph.csr import CSRGraph


_SAMPLERS = {
    "streaming": StreamingSampler,
    "reservoir": ReservoirSampler,
    "uniform": ReservoirSampler,  # functional alias for the baseline
}

#: The AxE clock (Table 10: 250 MHz), shared by the cores, the VPU, the
#: GEMM array, the analytical model and the FaaS DSE.
AXE_CLOCK_HZ = 250e6


@dataclass(frozen=True)
class CoreConfig:
    """Microarchitectural parameters of one AxE core.

    Also the one home of the request shapes (``offset_read_bytes``,
    ``id_bytes``, ``line_bytes``) and the tag budget the analytical
    model reads.
    """

    fanouts: Tuple[int, ...] = (10, 10)
    sampler: str = "streaming"
    #: Concurrent root tasks (root scoreboard capacity).
    window: int = 16
    #: Load-unit tag-file capacity (outstanding requests).
    max_tags: int = 256
    #: Deliver memory responses in issue order (the pre-Tech-3 baseline).
    in_order: bool = False
    #: Merge element accesses into 64B-line requests (Tech-4 cache).
    coalescing: bool = True
    #: Fetch attributes of sampled nodes.
    fetch_attributes: bool = True
    #: Also fetch per-edge weights during GetNeighbor (Table 4's
    #: "w/ or w/o edge attribute").
    fetch_edge_weights: bool = False
    #: Reduce each sampled neighborhood on-FPGA (VPU, §4.1) before
    #: output: ships one aggregated row per group instead of one row
    #: per node, cutting output traffic by ~the fanout.
    reduce_output: bool = False
    #: Bytes of one index+offset structure lookup.
    offset_read_bytes: int = 32
    id_bytes: int = 8
    line_bytes: int = 64

    def __post_init__(self) -> None:
        if not self.fanouts or any(f <= 0 for f in self.fanouts):
            raise ConfigurationError(f"invalid fanouts {self.fanouts}")
        if self.sampler not in _SAMPLERS:
            raise ConfigurationError(
                f"unknown sampler {self.sampler!r}; expected one of "
                f"{sorted(_SAMPLERS)}"
            )
        if self.window <= 0 or self.max_tags <= 0:
            raise ConfigurationError("window and max_tags must be positive")


class _RootTask:
    """In-flight state of one root sample."""

    __slots__ = ("root", "board_entry", "layers", "pending", "output_bytes")

    def __init__(self, root: int, board_entry: int) -> None:
        self.root = root
        self.board_entry = board_entry
        self.layers: List[np.ndarray] = [np.asarray([root], dtype=np.int64)]
        self.pending = 0
        self.output_bytes = 0


class AxeCore:
    """One homogeneous AxE core.

    Parameters
    ----------
    sim:
        Shared event simulator.
    config:
        Core microarchitecture.
    graph:
        Functional graph (neighbor lists and attribute length).
    router:
        ``router(node) -> MemoryChannel`` chooses the memory path that
        owns the node's data (local DDR channel, PCIe host path, or the
        MoF remote path).
    output_channel:
        IO channel results are written to (PCIe or GPU link), shared
        across cores; ``None`` drops results (modeling an on-chip
        consumer).
    seed:
        Per-core RNG seed.
    """

    def __init__(
        self,
        sim: Simulator,
        config: CoreConfig,
        graph: CSRGraph,
        router: Callable[[int], MemoryChannel],
        output_channel: Optional[MemoryChannel] = None,
        seed: int = 0,
        core_id: int = 0,
    ) -> None:
        self.sim = sim
        self.config = config
        self.graph = graph
        self.router = router
        self.output_channel = output_channel
        self.core_id = core_id
        self.rng = np.random.default_rng(seed)
        self.load_unit = LoadUnit(
            sim,
            max_tags=config.max_tags,
            in_order=config.in_order,
            name=f"core{core_id}.loadunit",
        )
        self.sampler = _SAMPLERS[config.sampler]()
        self.cache = CoalescingCache(line_bytes=config.line_bytes)
        self.root_board = OrderingScoreboard(config.window, name=f"core{core_id}.roots")
        self._queue: Deque[int] = deque()
        self._results: Dict[int, List[np.ndarray]] = {}
        self._on_done: Optional[Callable[[], None]] = None
        self._outputs_pending = 0
        self._all_submitted = False
        self.sampling_busy_cycles = 0

    # ------------------------------------------------------------ batch API
    def submit(self, roots: np.ndarray, on_done: Callable[[], None]) -> None:
        """Queue a batch of roots; ``on_done`` fires when every root's
        result has been written to the output channel."""
        roots = np.asarray(roots, dtype=np.int64)
        if roots.size == 0:
            raise ConfigurationError("cannot submit an empty batch")
        self._queue = deque(roots.tolist())
        self._on_done = on_done
        self._all_submitted = False
        self._outputs_pending = 0
        self._results = {}
        # Prime the window; further roots start as slots free up.
        self.sim.after(0.0, self._fill_window)

    @property
    def results(self) -> Dict[int, List[np.ndarray]]:
        """Per-root sampled layers, keyed by root node ID."""
        return self._results

    def _fill_window(self) -> None:
        while self._queue and not self.root_board.full:
            root = self._queue.popleft()
            entry = self.root_board.allocate()
            task = _RootTask(root, entry)
            self._expand(task, hop=0)
        if not self._queue:
            self._all_submitted = True
            self._maybe_finish()

    # ------------------------------------------------------------- the FSM
    def _cycles_delay(self, cycles: int) -> float:
        return cycles / AXE_CLOCK_HZ

    def _expand(self, task: _RootTask, hop: int) -> None:
        """GetNeighbor + GetSample for every node of the current frontier."""
        frontier = task.layers[hop]
        fanout = self.config.fanouts[hop]
        groups: List[Optional[np.ndarray]] = [None] * frontier.size
        remaining = [frontier.size]

        def group_done(index: int, sampled: np.ndarray) -> None:
            groups[index] = sampled
            remaining[0] -= 1
            if remaining[0] == 0:
                task.layers.append(np.concatenate(groups))
                next_hop = hop + 1
                if next_hop < len(self.config.fanouts):
                    self._expand(task, next_hop)
                else:
                    self._fetch_attributes(task)

        for index, node in enumerate(frontier):
            self._get_neighbors_then_sample(
                int(node), fanout, lambda s, i=index: group_done(i, s)
            )

    def _get_neighbors_then_sample(
        self, node: int, fanout: int, on_sampled: Callable[[np.ndarray], None]
    ) -> None:
        channel = self.router(node)

        def after_ids() -> None:
            neighbors = self.graph.neighbors(node)
            if neighbors.size == 0:
                sampled = np.full(fanout, node, dtype=np.int64)
                on_sampled(sampled)
                return
            sampled, cycles, _storage = self.sampler.sample(
                neighbors, fanout, self.rng
            )
            self.sampling_busy_cycles += cycles
            self.sim.after(
                self._cycles_delay(cycles),
                lambda: on_sampled(np.asarray(sampled, dtype=np.int64)),
            )

        def after_offsets() -> None:
            degree = self.graph.degree(node)
            if degree == 0:
                after_ids()
                return
            id_bytes = degree * self.config.id_bytes
            if self.config.fetch_edge_weights:
                id_bytes += degree * 4  # float32 weight per edge
            base_addr = int(self.graph.indptr[node]) * self.config.id_bytes
            if self.config.coalescing:
                num_requests = self.cache.access(
                    base_addr, id_bytes, self.config.id_bytes
                )
                request_bytes = self.config.line_bytes
                if num_requests == 0:
                    after_ids()  # fully coalesced with resident lines
                    return
            else:
                num_requests = -(-id_bytes // self.config.id_bytes)
                request_bytes = self.config.id_bytes
            self._scatter_load(channel, num_requests, request_bytes, after_ids)

        self.load_unit.load(channel, self.config.offset_read_bytes, after_offsets)

    def _scatter_load(
        self,
        channel: MemoryChannel,
        num_requests: int,
        request_bytes: int,
        on_all_done: Callable[[], None],
    ) -> None:
        """Issue ``num_requests`` loads; fire the callback when all land."""
        remaining = [num_requests]

        def one_done() -> None:
            remaining[0] -= 1
            if remaining[0] == 0:
                on_all_done()

        for _ in range(num_requests):
            self.load_unit.load(channel, request_bytes, one_done)

    def _fetch_attributes(self, task: _RootTask) -> None:
        if not self.config.fetch_attributes or self.graph.attr_len == 0:
            self._complete_root(task)
            return
        nodes = np.concatenate([layer.reshape(-1) for layer in task.layers])
        row_bytes = self.graph.attr_len * 4
        if self.config.reduce_output:
            # One aggregated row per GetNeighbor group (the GCN-style
            # on-FPGA reduction): the root plus one row per expanded
            # node, instead of one per sampled node.
            groups = 1 + sum(
                layer.reshape(-1).size for layer in task.layers[:-1]
            )
            task.output_bytes = groups * (row_bytes + self.config.id_bytes)
        else:
            task.output_bytes = int(nodes.size) * (
                row_bytes + self.config.id_bytes
            )
        remaining = [int(nodes.size)]

        def one_done() -> None:
            remaining[0] -= 1
            if remaining[0] == 0:
                self._complete_root(task)

        for node in nodes.tolist():
            self.load_unit.load(self.router(node), row_bytes, one_done)

    def _complete_root(self, task: _RootTask) -> None:
        if task.output_bytes == 0:
            # IDs only (no attributes fetched).
            total_ids = sum(layer.size for layer in task.layers)
            task.output_bytes = total_ids * self.config.id_bytes
        self._results[task.root] = task.layers
        self.root_board.complete(task.board_entry, task)
        for released in self.root_board.release_ready():
            self._emit_output(released)
        self._fill_window()

    def _emit_output(self, task: _RootTask) -> None:
        self._outputs_pending += 1

        def output_done() -> None:
            self._outputs_pending -= 1
            self._maybe_finish()

        if self.output_channel is None:
            self.sim.after(0.0, output_done)
        else:
            self.output_channel.request(task.output_bytes, output_done)

    def _maybe_finish(self) -> None:
        if (
            self._all_submitted
            and not self._queue
            and self.root_board.occupancy == 0
            and self._outputs_pending == 0
            and self._on_done is not None
        ):
            callback, self._on_done = self._on_done, None
            callback()
