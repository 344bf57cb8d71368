"""Analytical performance model and PoC configuration (§7.2)."""

from repro.perfmodel.analytical import (
    AnalyticalModel,
    HardwareWorkload,
    ThroughputPrediction,
    axe_cores_needed,
)
from repro.perfmodel.poc import (
    POC_SWEEP,
    PocConfigPoint,
    build_poc_engine,
    validate_model,
    poc_vcpu_equivalence,
)

__all__ = [
    "AnalyticalModel",
    "HardwareWorkload",
    "ThroughputPrediction",
    "axe_cores_needed",
    "POC_SWEEP",
    "PocConfigPoint",
    "build_poc_engine",
    "validate_model",
    "poc_vcpu_equivalence",
]
