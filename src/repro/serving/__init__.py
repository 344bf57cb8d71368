"""Online, SLO-aware serving layer over the sampling backends.

:func:`~repro.serving.gateway.serve_closed_loop` shows *that* sampling
latency blows deadlines under load (Challenge-1); this package is the
serving architecture that manages it: an admission-controlled gateway
(:mod:`~repro.serving.gateway`) coalescing per-tenant open-loop
request streams (:mod:`~repro.serving.workload`) into dynamic
micro-batches, scheduled earliest-deadline-first with token-bucket
fair share (:mod:`~repro.serving.scheduler`) onto pluggable software /
AxE-hardware backends (:mod:`~repro.serving.backends`), with
load-shedding backpressure, graceful degradation on backend failure,
and a full metrics registry (:mod:`~repro.serving.metrics`).
"""

from repro.serving.backends import (
    BackendResult,
    HardwareBackend,
    ServingBackend,
    SoftwareBackend,
    nodes_per_root,
)
from repro.serving.gateway import (
    GatewayConfig,
    GatewayLoad,
    MicroBatch,
    ServingGateway,
    ShedResponse,
    serve_closed_loop,
    serve_workload,
)
from repro.serving.metrics import (
    BackendReport,
    MetricsRegistry,
    ServingReport,
    TenantReport,
)
from repro.serving.scheduler import SloScheduler, TokenBucket
from repro.serving.workload import (
    Arrival,
    DiurnalProfile,
    TenantSpec,
    default_tenants,
    generate_arrivals,
)

__all__ = [
    "Arrival",
    "BackendReport",
    "BackendResult",
    "DiurnalProfile",
    "GatewayConfig",
    "GatewayLoad",
    "HardwareBackend",
    "MetricsRegistry",
    "MicroBatch",
    "ServingBackend",
    "ServingGateway",
    "ServingReport",
    "ShedResponse",
    "SloScheduler",
    "SoftwareBackend",
    "TenantReport",
    "TenantSpec",
    "TokenBucket",
    "default_tenants",
    "generate_arrivals",
    "nodes_per_root",
    "serve_closed_loop",
    "serve_workload",
]
