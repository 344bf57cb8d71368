# repro-module: repro/serving/stamp_fixture.py
"""Fixture: det-wallclock fires on host-clock imports and calls; in an
event-driven module a host stamp corrupts virtual-time arithmetic."""

import time
from typing import Any


def stamp(event: Any) -> None:
    event.timestamp = time.time()
