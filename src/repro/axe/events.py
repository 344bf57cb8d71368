"""Discrete-event simulation kernel.

A minimal, deterministic event loop: callbacks scheduled at absolute or
relative times, FIFO tie-breaking for simultaneous events. Time is in
seconds (hardware blocks convert from their own clock domains — the PoC
runs AxE/MoF at 250MHz and the RISC-V at 100MHz).
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import Callable, List, Optional, Tuple

from repro.errors import SimulationError


class Simulator:
    """Deterministic discrete-event simulator."""

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: List[Tuple[float, int, Callable[[], None]]] = []
        self._sequence = count()
        self._events_processed = 0

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far."""
        return self._events_processed

    def at(self, when: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` at absolute time ``when``."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at {when} before current time {self._now}"
            )
        heappush(self._queue, (when, next(self._sequence), callback))

    def after(self, delay: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` after ``delay`` seconds."""
        if delay < 0:
            raise SimulationError(f"delay must be non-negative, got {delay}")
        self.at(self._now + delay, callback)

    def run(self, until: Optional[float] = None, max_events: int = 50_000_000) -> float:
        """Run until the queue drains (or ``until``); returns final time.

        ``max_events`` guards against runaway simulations (a stalled
        pipeline that keeps rescheduling itself).
        """
        queue = self._queue
        while queue:
            if until is not None and queue[0][0] > until:
                self._now = until
                return until
            when, _seq, callback = heappop(queue)
            self._now = when
            self._events_processed += 1
            if self._events_processed > max_events:
                raise SimulationError(
                    f"exceeded {max_events} events; simulation likely livelocked"
                )
            callback()
        return self._now

    def pending(self) -> int:
        """Number of scheduled-but-unexecuted events."""
        return len(self._queue)
