"""Out-of-order load unit and memory channels (Tech-3).

The load unit is AxE's door to the memory system: it embeds the request
context in a 128-bit tag (no thread state to store or switch), keeps a
large number of requests in flight, and lets responses return out of
order — ordering is re-imposed downstream by the scoreboards.

:class:`MemoryChannel` is a bandwidth/latency queueing model of one
memory path (a DDR channel group, the PCIe host path, or the MoF
fabric): requests serialize on the channel at its peak bandwidth and
complete after the link's base latency plus serialization time.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Callable, Deque, Dict, Optional, Tuple

from repro.errors import CapacityError, ConfigurationError
from repro.axe.events import Simulator
from repro.memstore.links import LinkModel


@dataclass
class ChannelStats:
    """Traffic counters for one memory channel."""

    requests: int = 0
    payload_bytes: int = 0
    busy_time_s: float = 0.0


class MemoryChannel:
    """Bandwidth-serializing memory path attached to the simulator."""

    def __init__(self, sim: Simulator, link: LinkModel, name: Optional[str] = None) -> None:
        self.sim = sim
        self.link = link
        self.name = name or link.name
        self._next_free = 0.0
        self.stats = ChannelStats()

    def request(self, nbytes: int, callback: Callable[[], None]) -> float:
        """Issue a request; ``callback`` fires at completion time.

        Returns the completion time. Requests serialize on the channel
        (peak-bandwidth bound) and each pays the link's base latency.
        """
        if nbytes <= 0:
            raise ConfigurationError(f"nbytes must be positive, got {nbytes}")
        link, stats, sim = self.link, self.stats, self.sim
        serialization = (nbytes + link.packet_overhead_bytes) / link.peak_bandwidth
        start = sim.now
        if self._next_free > start:
            start = self._next_free
        self._next_free = start + serialization
        complete = start + serialization + link.base_latency_s
        stats.requests += 1
        stats.payload_bytes += nbytes
        stats.busy_time_s += serialization
        sim.at(complete, callback)
        return complete

    def utilization(self) -> float:
        """Busy fraction of the channel over elapsed simulation time."""
        if self.sim.now <= 0:
            return 0.0
        return min(1.0, self.stats.busy_time_s / self.sim.now)


class LoadUnit:
    """Tagged, out-of-order load unit with a bounded tag file.

    Parameters
    ----------
    sim:
        The event simulator.
    max_tags:
        Tag-file capacity = maximum requests in flight. The paper's
        design embeds the context into a 128-bit tag so this can be
        large; the conventional blocking baseline is ``max_tags=1``.
    in_order:
        When True, responses are *delivered* in issue order (a response
        waits for all older requests) — the non-scoreboarded baseline
        the paper's 30x OoO claim is measured against.
    """

    def __init__(
        self,
        sim: Simulator,
        max_tags: int,
        in_order: bool = False,
        name: str = "loadunit",
    ) -> None:
        if max_tags <= 0:
            raise CapacityError(f"max_tags must be positive, got {max_tags}")
        self.sim = sim
        self.max_tags = max_tags
        self.in_order = in_order
        self.name = name
        self._tags_in_use = 0
        # Loads waiting for a free tag, as (channel, nbytes, callback).
        self._wait_queue: Deque[Tuple[MemoryChannel, int, Callable]] = deque()
        # In-order delivery bookkeeping.
        self._issue_seq = 0
        self._deliver_seq = 0
        self._held: Dict[int, Callable[[], None]] = {}
        # Statistics
        self.issued = 0
        self.max_outstanding = 0

    @property
    def outstanding(self) -> int:
        return self._tags_in_use

    def load(
        self, channel: MemoryChannel, nbytes: int, callback: Callable[[], None]
    ) -> None:
        """Request ``nbytes`` from ``channel``; queue if no tag is free."""
        if self._tags_in_use < self.max_tags:
            self._issue(channel, nbytes, callback)
        else:
            self._wait_queue.append((channel, nbytes, callback))

    def _issue(
        self, channel: MemoryChannel, nbytes: int, callback: Callable[[], None]
    ) -> None:
        self._tags_in_use += 1
        self.issued += 1
        if self._tags_in_use > self.max_outstanding:
            self.max_outstanding = self._tags_in_use
        seq = self._issue_seq
        self._issue_seq += 1
        if self.in_order:
            channel.request(nbytes, partial(self._hold, seq, callback))
        else:
            channel.request(nbytes, partial(self._finish, callback))

    def _hold(self, seq: int, callback: Callable[[], None]) -> None:
        self._held[seq] = callback
        while self._deliver_seq in self._held:
            ready = self._held.pop(self._deliver_seq)
            self._deliver_seq += 1
            self._finish(ready)

    def _finish(self, callback: Callable[[], None]) -> None:
        self._tags_in_use -= 1
        callback()
        # Freeing the tag may unblock a queued request.
        while self._wait_queue and self._tags_in_use < self.max_tags:
            self._issue(*self._wait_queue.popleft())
