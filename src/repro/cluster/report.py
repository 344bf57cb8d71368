"""Cluster-level accounting and the policy-comparison report.

A cluster run keeps one request ledger, a
:class:`~repro.serving.metrics.MetricsRegistry`: the cluster records
each offer and each edge shed into it, and every replica gateway
records its completions into the same registry. It survives hot
restarts (a restarted replica's fresh gateway is handed the same
registry), and a request evacuated off a failed replica completes on
another gateway but in that same ledger. So every offered request is
accounted exactly once — ``offered == completed + shed + in flight at
horizon`` — which is what the no-lost-requests invariant in the kill
test checks. :class:`ClusterMetrics` holds only what the registry does
not: fleet lifecycle and billing counters.

The headline artifact is :func:`format_comparison`: SLO attainment
against fleet $/hr for each scaling policy over the same trace — the
ROADMAP item 1 deliverable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.cluster.replica import ReplicaFlavor
from repro.serving.metrics import ServingReport, TenantReport
from repro.units import MS_PER_S, S_PER_HOUR


def _attainment(within_slo: int, offered: int) -> float:
    """Completed-within-SLO over *offered*; 1.0 when nothing was offered."""
    if offered == 0:
        return 1.0
    return within_slo / offered


class ClusterMetrics:
    """Fleet and billing counters the cluster simulation writes into."""

    def __init__(self) -> None:
        #: Router chose a dead-but-undetected replica; instantly re-routed.
        self.redirected_requests = 0
        #: Admitted work pulled off a failed replica and re-routed.
        self.evacuated_requests = 0
        self.replica_launches = 0
        self.replica_failures = 0
        self.replica_restarts = 0
        self.replica_drains = 0
        #: arch -> accumulated active replica-seconds (billing basis).
        self.replica_seconds: Dict[str, float] = {}
        #: (time_s, active replica count) at each control tick.
        self.fleet_samples: List[Tuple[float, int]] = []

    def on_replica_active_s(self, arch: str, seconds: float) -> None:
        self.replica_seconds[arch] = (
            self.replica_seconds.get(arch, 0.0) + seconds
        )

    def total_cost(self, catalog: Mapping[str, ReplicaFlavor]) -> float:
        """Dollars spent over the run, per the fitted pricing model."""
        cost = 0.0
        for arch, seconds in self.replica_seconds.items():
            cost += catalog[arch].price_per_hour * seconds / S_PER_HOUR
        return cost


@dataclass(frozen=True)
class ClusterReport:
    """One policy's run over one trace, fully reduced."""

    policy: str
    router: str
    duration_s: float
    offered: int
    completed: int
    within_slo: int
    shed_requests: int
    redirected_requests: int
    evacuated_requests: int
    replica_launches: int
    replica_failures: int
    replica_restarts: int
    replica_drains: int
    min_replicas: int
    peak_replicas: int
    replica_seconds: Mapping[str, float]
    total_cost: float
    #: The request ledger's per-tenant rows, in registration order.
    tenants: Tuple[TenantReport, ...]

    @property
    def attainment(self) -> float:
        """Completed-within-SLO over offered — shed requests count
        against the cluster, not against the client."""
        return _attainment(self.within_slo, self.offered)

    @property
    def dollars_per_hour(self) -> float:
        """Mean fleet burn rate over the run window."""
        if self.duration_s <= 0:
            return 0.0
        return self.total_cost * S_PER_HOUR / self.duration_s

    @property
    def lost_requests(self) -> int:
        """Offered requests neither completed nor explicitly shed.

        Must be zero even across replica kills: accepted work is
        evacuated and re-routed, never dropped.
        """
        return self.offered - self.completed - self.shed_requests

    def to_json(self) -> Dict[str, object]:
        return {
            "policy": self.policy,
            "router": self.router,
            "duration_s": self.duration_s,
            "offered": self.offered,
            "completed": self.completed,
            "within_slo": self.within_slo,
            "shed_requests": self.shed_requests,
            "redirected_requests": self.redirected_requests,
            "evacuated_requests": self.evacuated_requests,
            "replica_launches": self.replica_launches,
            "replica_failures": self.replica_failures,
            "replica_restarts": self.replica_restarts,
            "replica_drains": self.replica_drains,
            "min_replicas": self.min_replicas,
            "peak_replicas": self.peak_replicas,
            "replica_seconds": dict(self.replica_seconds),
            "total_cost": self.total_cost,
            "dollars_per_hour": self.dollars_per_hour,
            "slo_attainment": self.attainment,
            "lost_requests": self.lost_requests,
            "tenants": [
                {
                    "name": t.name,
                    "slo_ms": t.slo_s * MS_PER_S,
                    "offered": t.offered,
                    "completed": t.completed,
                    "shed_requests": t.shed,
                    "attainment": _attainment(
                        t.completed - t.slo_misses, t.offered
                    ),
                    "p50_ms": t.p50 * MS_PER_S,
                    "p99_ms": t.p99 * MS_PER_S,
                }
                for t in self.tenants
            ],
        }

    def format(self) -> str:
        lines = [
            f"cluster run: policy={self.policy} router={self.router} "
            f"duration={self.duration_s:.1f}s",
            f"  requests: offered {self.offered:,}  completed "
            f"{self.completed:,}  shed {self.shed_requests:,}  "
            f"lost {self.lost_requests}",
            f"  SLO attainment: {self.attainment:.1%}   fleet cost: "
            f"${self.total_cost:.4f} (${self.dollars_per_hour:.2f}/hr)",
            f"  fleet: {self.min_replicas}-{self.peak_replicas} replicas  "
            f"launches {self.replica_launches}  failures "
            f"{self.replica_failures}  restarts {self.replica_restarts}  "
            f"drains {self.replica_drains}",
            f"  recovery: redirected {self.redirected_requests:,}  "
            f"evacuated {self.evacuated_requests:,}",
        ]
        for t in self.tenants:
            attainment = _attainment(t.completed - t.slo_misses, t.offered)
            lines.append(
                f"  tenant {t.name:<8} slo {t.slo_s * MS_PER_S:5.1f}ms  "
                f"offered {t.offered:>7,}  attain {attainment:6.1%}  p50 "
                f"{t.p50 * MS_PER_S:6.2f}ms  p99 {t.p99 * MS_PER_S:7.2f}ms"
            )
        return "\n".join(lines)


def build_report(
    metrics: ClusterMetrics,
    requests: ServingReport,
    policy: str,
    router: str,
    duration_s: float,
    catalog: Mapping[str, ReplicaFlavor],
) -> ClusterReport:
    """Reduce a run: request rows off the ledger's ``requests``
    snapshot, fleet and billing off ``metrics``."""
    counts = [count for _t, count in metrics.fleet_samples]
    # ``latency <= slo`` and ``latency > slo`` are complements.
    slo_misses = sum(t.slo_misses for t in requests.tenants.values())
    return ClusterReport(
        policy=policy,
        router=router,
        duration_s=duration_s,
        offered=requests.offered,
        completed=requests.completed,
        within_slo=requests.completed - slo_misses,
        shed_requests=requests.shed,
        redirected_requests=metrics.redirected_requests,
        evacuated_requests=metrics.evacuated_requests,
        replica_launches=metrics.replica_launches,
        replica_failures=metrics.replica_failures,
        replica_restarts=metrics.replica_restarts,
        replica_drains=metrics.replica_drains,
        min_replicas=min(counts) if counts else 0,
        peak_replicas=max(counts) if counts else 0,
        replica_seconds=dict(metrics.replica_seconds),
        total_cost=metrics.total_cost(catalog),
        tenants=tuple(requests.tenants.values()),
    )


def format_comparison(reports: Sequence[ClusterReport]) -> str:
    """The headline table: SLO attainment vs $/hr across policies."""
    if not reports:
        raise ConfigurationError("no reports to compare")
    header = (
        f"{'policy':<14} {'attain':>7} {'$/hr':>8} {'cost':>9} "
        f"{'replicas':>9} {'shed':>7} {'lost':>5} {'p99 ms':>8}"
    )
    lines = [header, "-" * len(header)]
    for report in reports:
        p99s = [t.p99 * MS_PER_S for t in report.tenants if t.completed]
        worst_p99 = max(p99s) if p99s else float("nan")
        lines.append(
            f"{report.policy:<14} {report.attainment:>7.1%} "
            f"{report.dollars_per_hour:>8.2f} {report.total_cost:>9.4f} "
            f"{report.min_replicas:>4}-{report.peak_replicas:<4} "
            f"{report.shed_requests:>7,} {report.lost_requests:>5} "
            f"{worst_p99:>8.2f}"
        )
    return "\n".join(lines)
