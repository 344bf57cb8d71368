# repro-module: repro/serving/stamp_fixture.py
"""Fixture: event timestamps come from the simulator clock (sim.now)."""

from typing import Any


def stamp(event: Any, sim: Any) -> None:
    event.timestamp = sim.now
