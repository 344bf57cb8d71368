"""Distributed in-memory storage substrate and its performance models."""

from repro.memstore.layout import FootprintModel, FootprintReport
from repro.memstore.links import LINK_PRESETS, LinkModel, get_link
from repro.memstore.outstanding import (
    outstanding_for_link,
    outstanding_requests_needed,
    outstanding_table,
    outstanding_with_faults,
    achieved_bandwidth,
)
from repro.memstore.index import ExternalIdIndex
from repro.memstore.faults import FaultInjector, FaultStats, ReliableReadPath
from repro.memstore.replication import ReplicaId, ReplicaPlacement
from repro.memstore.retry import RetryPolicy, expected_attempts
from repro.memstore.store import (
    AccessKind,
    AccessRecord,
    AccessSummary,
    PartitionedStore,
)
from repro.memstore.ingest import (
    DynamicPartitionedStore,
    IngestStats,
    Mutation,
    growth_trace,
)

__all__ = [
    "FootprintModel",
    "FootprintReport",
    "LINK_PRESETS",
    "LinkModel",
    "get_link",
    "outstanding_for_link",
    "outstanding_requests_needed",
    "outstanding_table",
    "outstanding_with_faults",
    "achieved_bandwidth",
    "ExternalIdIndex",
    "FaultInjector",
    "FaultStats",
    "ReliableReadPath",
    "ReplicaId",
    "ReplicaPlacement",
    "RetryPolicy",
    "expected_attempts",
    "AccessKind",
    "AccessRecord",
    "AccessSummary",
    "PartitionedStore",
    "DynamicPartitionedStore",
    "IngestStats",
    "Mutation",
    "growth_trace",
]
