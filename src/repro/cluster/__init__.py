"""Multi-replica serving cluster with cost-driven autoscaling.

The serving layer (:mod:`repro.serving`) manages one gateway's SLOs;
this package is the layer above — the FaaS *fleet* the paper's
hyperscale argument is actually about. N replicas (each a gateway over
one Table 8 architecture flavor, priced by :mod:`repro.cost` and rated
by :mod:`repro.faas`) sit behind a pluggable router
(:mod:`~repro.cluster.router`), watched by a failure detector
(:mod:`~repro.cluster.health`), scaled by pluggable policies
(:mod:`~repro.cluster.autoscaler`), and driven by deterministic
diurnal flash-crowd traces (:mod:`~repro.cluster.trace`). The
headline artifact (:mod:`~repro.cluster.report`) compares SLO
attainment against fleet $/hr across scaling policies.
"""

from repro.cluster.autoscaler import (
    Autoscaler,
    ClusterSnapshot,
    CostModelPolicy,
    DemandForecast,
    ReactivePolicy,
    SCALING_POLICIES,
    ScalePlan,
    ScalingPolicy,
    StaticPolicy,
    get_policy,
    plan_min_cost_fleet,
)
from repro.cluster.health import HealthMonitor
from repro.cluster.replica import (
    ClusterReplica,
    ModeledBackend,
    ReplicaFlavor,
    ReplicaState,
    flavor_catalog,
    modeled_backends,
    session_backends,
)
from repro.cluster.report import (
    ClusterMetrics,
    ClusterReport,
    build_report,
    format_comparison,
)
from repro.cluster.router import (
    ConsistentHashRouter,
    LeastLoadedRouter,
    ROUTER_POLICIES,
    Router,
    get_router,
)
from repro.cluster.sim import (
    ARCHS,
    ClusterConfig,
    ClusterSim,
    run_cluster,
)
from repro.cluster.trace import (
    FlashCrowd,
    TenantMix,
    TraceConfig,
    default_mix,
    flash_crowd_day,
    generate_trace,
    trace_digest,
)

__all__ = [
    "ARCHS",
    "Autoscaler",
    "ClusterConfig",
    "ClusterMetrics",
    "ClusterReplica",
    "ClusterReport",
    "ClusterSim",
    "ClusterSnapshot",
    "ConsistentHashRouter",
    "CostModelPolicy",
    "DemandForecast",
    "FlashCrowd",
    "HealthMonitor",
    "LeastLoadedRouter",
    "ModeledBackend",
    "ROUTER_POLICIES",
    "ReactivePolicy",
    "ReplicaFlavor",
    "ReplicaState",
    "Router",
    "SCALING_POLICIES",
    "ScalePlan",
    "ScalingPolicy",
    "StaticPolicy",
    "TenantMix",
    "TraceConfig",
    "build_report",
    "default_mix",
    "flash_crowd_day",
    "flavor_catalog",
    "format_comparison",
    "generate_trace",
    "get_policy",
    "get_router",
    "modeled_backends",
    "plan_min_cost_fleet",
    "run_cluster",
    "session_backends",
    "trace_digest",
]
