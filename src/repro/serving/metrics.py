"""Metrics registry and the :class:`ServingReport` for the gateway.

The serving layer is judged by distributions, not averages: admitted
p99 against the tenant SLO, shed rate under overload, and micro-batch
occupancy (how much cross-tenant coalescing the batcher achieved). The
registry accumulates raw observations during a run; the report is an
immutable snapshot with derived statistics.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.errors import ConfigurationError
from repro.units import MS_PER_S


def _percentile(samples: List[float], q: float) -> float:
    """Percentile of ``samples``; NaN when none were recorded.

    A latency percentile over zero completed requests is undefined —
    returning NaN keeps report plumbing (format strings, dashboards)
    alive instead of crashing an otherwise-valid empty-window report.
    Out-of-range ``q`` is still a caller bug and raises.
    """
    if not 0 <= q <= 100:
        raise ConfigurationError(f"percentile must be in [0, 100], got {q}")
    if not samples:
        return float("nan")
    return float(np.percentile(samples, q))


@dataclass
class TenantReport:
    """Per-tenant slice of a serving run."""

    name: str
    slo_s: float
    offered: int = 0
    admitted: int = 0
    completed: int = 0
    shed: int = 0
    latencies_s: List[float] = field(default_factory=list)
    slo_misses: int = 0

    @property
    def shed_rate(self) -> float:
        if self.offered == 0:
            return 0.0
        return self.shed / self.offered

    @property
    def slo_miss_rate(self) -> float:
        if self.completed == 0:
            return 0.0
        return self.slo_misses / self.completed

    def percentile(self, q: float) -> float:
        return _percentile(self.latencies_s, q)

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p99(self) -> float:
        return self.percentile(99)


@dataclass
class BackendReport:
    """Per-backend utilization slice of a serving run.

    Every derived statistic is total — not NaN, not a crash — for a
    backend that finished zero batches: a registered-but-idle backend
    (e.g. hardware that failed before its first dispatch, or software
    that never overflowed) is a normal outcome of a serving run, and
    report plumbing must survive it.
    """

    name: str
    concurrency: int
    batches: int = 0
    requests: int = 0
    busy_s: float = 0.0

    def utilization(self, duration_s: float) -> float:
        """Busy fraction of slot-time; 0.0 for empty windows/slots."""
        if duration_s <= 0 or self.concurrency <= 0:
            return 0.0
        return self.busy_s / (duration_s * self.concurrency)

    @property
    def mean_service_s(self) -> float:
        """Mean slot time per dispatched batch; 0.0 with zero batches."""
        if self.batches == 0:
            return 0.0
        return self.busy_s / self.batches

    @property
    def mean_batch_requests(self) -> float:
        """Mean requests coalesced per batch; 0.0 with zero batches."""
        if self.batches == 0:
            return 0.0
        return self.requests / self.batches


@dataclass
class ServingReport:
    """Result of one online serving run.

    ``duration_s`` is the workload window (used for rate
    normalization); ``drain_s`` is when the last admitted request
    completed (the gateway never drops admitted work, so it may drain
    past the arrival window).
    """

    duration_s: float
    drain_s: float
    offered: int
    admitted: int
    completed: int
    shed: int
    retried: int
    shed_by_reason: Dict[str, int]
    latencies_s: List[float]
    tenants: Dict[str, TenantReport]
    backends: Dict[str, BackendReport]
    batch_request_sizes: List[int]
    batch_root_sizes: List[int]
    max_queue_depth: int
    #: Store-level (memstore reliable-path) counters for the run, when
    #: a functional backend samples over a fault-tolerant store.
    store_reads: int = 0
    store_retries: int = 0
    store_timeouts: int = 0
    store_hedges: int = 0
    store_hedge_wins: int = 0
    store_failovers: int = 0
    store_degraded_reads: int = 0
    #: Online mutations applied during the run (dynamic sessions only).
    mutations_applied: int = 0

    # ------------------------------------------------------------- derived
    @property
    def shed_rate(self) -> float:
        """Fraction of offered requests refused admission."""
        if self.offered == 0:
            return 0.0
        return self.shed / self.offered

    @property
    def completed_qps(self) -> float:
        if self.duration_s <= 0:
            return 0.0
        return self.completed / self.duration_s

    @property
    def mean_batch_occupancy(self) -> float:
        """Mean admitted requests coalesced per dispatched micro-batch."""
        if not self.batch_request_sizes:
            return 0.0
        return float(np.mean(self.batch_request_sizes))

    @property
    def mean_batch_roots(self) -> float:
        """Mean root count per dispatched micro-batch."""
        if not self.batch_root_sizes:
            return 0.0
        return float(np.mean(self.batch_root_sizes))

    @property
    def slo_miss_rate(self) -> float:
        completed = sum(t.completed for t in self.tenants.values())
        if completed == 0:
            return 0.0
        return sum(t.slo_misses for t in self.tenants.values()) / completed

    def percentile(self, q: float) -> float:
        """Latency percentile over all completed (admitted) requests."""
        return _percentile(self.latencies_s, q)

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    # ----------------------------------------------------------- rendering
    def format(self) -> str:
        """Multi-line human-readable summary (the CLI/report block)."""
        lines = [
            f"window {self.duration_s * MS_PER_S:.0f} ms"
            f" (drained at {self.drain_s * MS_PER_S:.0f} ms)"
            f"  offered {self.offered}  admitted {self.admitted}"
            f"  completed {self.completed}  retried {self.retried}",
            f"throughput: {self.completed_qps:,.0f} completed req/s"
            f"  max queue depth: {self.max_queue_depth}",
        ]
        if self.latencies_s:
            lines.append(
                f"p50 latency: {MS_PER_S * self.p50:.3f} ms"
                f"  p99 latency: {MS_PER_S * self.p99:.3f} ms"
                f"  SLO miss rate: {100 * self.slo_miss_rate:.1f}%"
            )
        else:
            lines.append("p50 latency: n/a  p99 latency: n/a")
        lines.append(
            f"shed rate: {100 * self.shed_rate:.1f}%"
            + "".join(
                f"  [{reason}: {count}]"
                for reason, count in sorted(self.shed_by_reason.items())
            )
        )
        lines.append(
            f"batch occupancy: {self.mean_batch_occupancy:.2f} req/batch"
            f"  ({self.mean_batch_roots:.1f} roots/batch,"
            f" {len(self.batch_request_sizes)} batches)"
        )
        if self.store_reads:
            lines.append(
                f"store path: {self.store_reads} reads"
                f"  retries {self.store_retries}"
                f"  timeouts {self.store_timeouts}"
                f"  hedges {self.store_hedges}"
                f" (won {self.store_hedge_wins})"
                f"  failovers {self.store_failovers}"
                f"  degraded {self.store_degraded_reads}"
            )
        for name, backend in sorted(self.backends.items()):
            service = (
                f" mean service {MS_PER_S * backend.mean_service_s:.3f} ms,"
                if backend.batches
                else " idle,"
            )
            lines.append(
                f"backend {name}: {backend.batches} batches,"
                f" {backend.requests} requests,{service}"
                f" {100 * backend.utilization(self.drain_s):.1f}% busy"
            )
        for name, tenant in sorted(self.tenants.items()):
            tail = (
                f"p99 {MS_PER_S * tenant.p99:.3f} ms"
                if tenant.latencies_s
                else "p99 n/a"
            )
            lines.append(
                f"tenant {name}: offered {tenant.offered}"
                f"  shed {100 * tenant.shed_rate:.1f}%  {tail}"
                f"  (SLO {MS_PER_S * tenant.slo_s:.1f} ms,"
                f" miss {100 * tenant.slo_miss_rate:.1f}%)"
            )
        return "\n".join(lines)


class MetricsRegistry:
    """Mutable accumulator the gateway writes during a run."""

    def __init__(self) -> None:
        self.offered = 0
        self.admitted = 0
        self.completed = 0
        self.retried = 0
        self.shed_by_reason: Dict[str, int] = defaultdict(int)
        self.latencies_s: List[float] = []
        self.batch_request_sizes: List[int] = []
        self.batch_root_sizes: List[int] = []
        #: Deepest gateway queue seen; in a cluster ledger, the maximum
        #: over every replica's queue, not one queue's peak.
        self.max_queue_depth = 0
        self._tenants: Dict[str, TenantReport] = {}
        self._backends: Dict[str, BackendReport] = {}
        self._store_faults: Dict[str, int] = {}

    # ------------------------------------------------------------ wiring
    def register_tenant(self, name: str, slo_s: float) -> None:
        if name not in self._tenants:
            self._tenants[name] = TenantReport(name=name, slo_s=slo_s)

    def register_backend(self, name: str, concurrency: int) -> None:
        if name not in self._backends:
            self._backends[name] = BackendReport(
                name=name, concurrency=concurrency
            )

    # ------------------------------------------------------------ events
    def on_offered(self, tenant: str) -> None:
        self.offered += 1
        self._tenants[tenant].offered += 1

    def on_admitted(self, tenant: str, queue_depth: int) -> None:
        self.admitted += 1
        self._tenants[tenant].admitted += 1
        self.on_queue_depth(queue_depth)

    def on_queue_depth(self, queue_depth: int) -> None:
        self.max_queue_depth = max(self.max_queue_depth, queue_depth)

    def on_shed(self, tenant: str, reason: str) -> None:
        self.shed_by_reason[reason] += 1
        self._tenants[tenant].shed += 1

    def on_batch(self, num_requests: int, num_roots: int) -> None:
        self.batch_request_sizes.append(num_requests)
        self.batch_root_sizes.append(num_roots)

    def on_dispatch(
        self, backend: str, num_requests: int, service_s: float
    ) -> None:
        stats = self._backends[backend]
        stats.batches += 1
        stats.requests += num_requests
        stats.busy_s += service_s

    def on_retried(self, num_requests: int) -> None:
        self.retried += num_requests

    def on_store_faults(self, stats) -> None:
        """Record the run's store-level fault counters.

        ``stats`` is a :class:`repro.memstore.faults.FaultStats` delta
        (counters accumulated during this run only).
        """
        self._store_faults = {
            "store_reads": stats.reads,
            "store_retries": stats.retries,
            "store_timeouts": stats.timeouts,
            "store_hedges": stats.hedges,
            "store_hedge_wins": stats.hedge_wins,
            "store_failovers": stats.failovers,
            "store_degraded_reads": stats.failed_reads,
        }

    def on_completed(self, tenant: str, latency_s: float) -> None:
        self.completed += 1
        self.latencies_s.append(latency_s)
        record = self._tenants[tenant]
        record.completed += 1
        record.latencies_s.append(latency_s)
        if latency_s > record.slo_s:
            record.slo_misses += 1

    # ----------------------------------------------------------- snapshot
    def snapshot(self, duration_s: float, drain_s: float) -> ServingReport:
        shed = sum(self.shed_by_reason.values())
        return ServingReport(
            duration_s=duration_s,
            drain_s=drain_s,
            offered=self.offered,
            admitted=self.admitted,
            completed=self.completed,
            shed=shed,
            retried=self.retried,
            shed_by_reason=dict(self.shed_by_reason),
            latencies_s=list(self.latencies_s),
            tenants=dict(self._tenants),
            backends=dict(self._backends),
            batch_request_sizes=list(self.batch_request_sizes),
            batch_root_sizes=list(self.batch_root_sizes),
            max_queue_depth=self.max_queue_depth,
            **self._store_faults,
        )
