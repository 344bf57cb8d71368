"""Fixture: elapsed time is simulated time, read off the event kernel."""

from typing import Any


def measure(sim: Any) -> float:
    start = sim.now
    sim.run()
    return sim.now - start
