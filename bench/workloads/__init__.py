"""The benchmark's workloads, one module each, in reporting order."""

from __future__ import annotations

import importlib

#: workload name -> class name in ``workloads/<name>.py``.
WORKLOADS = {
    "sample_wide": "SampleWide",
    "sample_sharded": "SampleSharded",
    "mutate_mixed": "MutateMixed",
    "train_fresh": "TrainFresh",
    "train_cached": "TrainCached",
    "serve_open": "ServeOpen",
    "axe_sample": "AxeSample",
}


def load(name: str):
    """The workload class called ``name`` (imports ``repro``)."""
    return getattr(importlib.import_module(f"workloads.{name}"), WORKLOADS[name])
