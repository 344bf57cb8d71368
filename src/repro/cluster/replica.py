"""One serving replica: a gateway plus its backend capacity.

A replica is the cluster's unit of scaling: a :class:`ServingGateway`
(micro-batching + EDF dispatch, cluster-level admission control
disabled) over a backend pool of one *flavor*. A flavor is one of the
paper's Table 8 FaaS architectures priced through the
:mod:`repro.cost` fitted model and rated through the :mod:`repro.faas`
analytical throughput model — which is exactly what lets the
autoscaler trade SLO attainment against $/hr with the paper's own
economics (Section 7.2) instead of made-up constants.

Two backend modes:

* **Modeled** (default) — :class:`ModeledBackend` charges each
  micro-batch ``overhead + roots/rate`` of virtual service time, where
  the rate is the flavor's architecture throughput scaled to the
  compressed trace (``capacity_scale``). This is the fleet-economics
  mode: millions of virtual users, zero real sampling.
* **Session-backed** — :func:`session_backends` wraps a
  :class:`repro.api.GnnSession` (optionally ``workers=k`` for the
  sharded parallel engine) in :class:`SoftwareBackend`, so every
  micro-batch really samples the session's graph.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.axe.events import Simulator
from repro.serving.backends import BackendResult, ServingBackend, SoftwareBackend
from repro.serving.gateway import GatewayConfig, GatewayLoad, ServingGateway
from repro.serving.workload import TenantSpec
from repro.units import MS


class ReplicaState(enum.Enum):
    """Replica lifecycle the health checker and autoscaler drive."""

    STARTING = "starting"  # spawned, warming up, unrouted
    HEALTHY = "healthy"  # routed, serving
    DRAINING = "draining"  # unrouted, finishing admitted work
    DOWN = "down"  # drained and retired
    FAILED = "failed"  # killed; admitted work awaits evacuation


@dataclass(frozen=True)
class ReplicaFlavor:
    """One deployable replica shape: capacity and price.

    ``roots_per_second`` is the whole replica's sampling capacity;
    ``price_per_hour`` its all-in cost (instance + the GPU share its
    output throughput obligates, per the Limitation-2 rule).
    """

    arch: str
    size: str
    roots_per_second: float
    price_per_hour: float
    concurrency: int = 2
    base_overhead_s: float = 1.0 * MS

    def __post_init__(self) -> None:
        if self.roots_per_second <= 0:
            raise ConfigurationError(
                f"roots_per_second must be positive, got "
                f"{self.roots_per_second}"
            )
        if self.price_per_hour <= 0:
            raise ConfigurationError(
                f"price_per_hour must be positive, got {self.price_per_hour}"
            )
        if self.concurrency <= 0:
            raise ConfigurationError(
                f"concurrency must be positive, got {self.concurrency}"
            )
        if self.base_overhead_s <= 0:
            raise ConfigurationError(
                f"base_overhead_s must be positive, got {self.base_overhead_s}"
            )

    @property
    def name(self) -> str:
        return self.arch

    @property
    def price_per_capacity(self) -> float:
        """$/hr per root/s — the scale-down ordering key."""
        return self.price_per_hour / self.roots_per_second


def flavor_catalog(
    archs: Sequence[str],
    size: str = "medium",
    dataset: str = "ss",
    capacity_scale: float = 1.0,
    concurrency: int = 2,
    dse: Optional[object] = None,
) -> "dict[str, ReplicaFlavor]":
    """Price and rate a set of Table 8 architectures as replica flavors.

    ``capacity_scale`` maps fleet-scale analytical throughput onto the
    compressed trace's demand scale — the same factor for every flavor,
    so relative perf-per-dollar (the quantity the cost policy optimizes)
    is preserved exactly.
    """
    if capacity_scale <= 0:
        raise ConfigurationError(
            f"capacity_scale must be positive, got {capacity_scale}"
        )
    from repro.faas.arch import get_architecture
    from repro.faas.dse import FaasDse

    engine = dse if dse is not None else FaasDse()
    catalog = {}
    for arch_name in archs:
        result = engine.evaluate(get_architecture(arch_name), size, dataset)
        catalog[arch_name] = ReplicaFlavor(
            arch=arch_name,
            size=size,
            roots_per_second=result.roots_per_second * capacity_scale,
            price_per_hour=result.total_price,
            concurrency=concurrency,
        )
    return catalog


class ModeledBackend(ServingBackend):
    """Timing-only backend charging the flavor's analytical rate.

    ``concurrency`` slots each deliver ``roots_per_second /
    concurrency``, so the replica's aggregate rate matches the flavor
    while per-batch latency reflects slot parallelism.
    """

    def __init__(self, flavor: ReplicaFlavor, name: str = "model") -> None:
        super().__init__(name=name, concurrency=flavor.concurrency)
        self.flavor = flavor
        self._slot_rate = flavor.roots_per_second / flavor.concurrency

    def execute(
        self, roots: np.ndarray, fanouts: Tuple[int, ...]
    ) -> BackendResult:
        service_s = self.flavor.base_overhead_s + roots.size / self._slot_rate
        return BackendResult(payload=None, service_s=service_s)


#: Builds a replica's backend pool; called per (re)start so a restarted
#: replica gets fresh backend state.
BackendFactory = Callable[[str], Sequence[ServingBackend]]


def modeled_backends(flavor: ReplicaFlavor) -> BackendFactory:
    """The default factory: one modeled backend of ``flavor``."""

    def factory(replica_name: str) -> Sequence[ServingBackend]:
        return [ModeledBackend(flavor, name=f"{replica_name}.model")]

    return factory


def session_backends(
    session: "object",
    functional: bool = True,
    concurrency: int = 4,
) -> BackendFactory:
    """Backends that really sample a :class:`repro.api.GnnSession`.

    Each replica wraps the session's sampler (the sharded parallel
    engine when the session was built with ``workers=k``) in a
    :class:`SoftwareBackend`; service time follows the backend's cost
    model (per-key cost over the constant ``BATCHED_SPEEDUP``, whatever
    the sampler) while payloads are genuine sample layers.
    """
    sampler = getattr(session, "sampler", None)
    if sampler is None:
        raise ConfigurationError(
            "session_backends needs a GnnSession-like object with a .sampler"
        )

    def factory(replica_name: str) -> Sequence[ServingBackend]:
        return [
            SoftwareBackend(
                sampler,
                concurrency=concurrency,
                functional=functional,
                name=f"{replica_name}.software",
            )
        ]

    return factory


class ClusterReplica:
    """Lifecycle wrapper tying a gateway to the shared event kernel."""

    def __init__(
        self,
        name: str,
        flavor: ReplicaFlavor,
        tenants: Sequence[TenantSpec],
        gateway_config: Optional[GatewayConfig] = None,
        backend_factory: Optional[BackendFactory] = None,
    ) -> None:
        if not name:
            raise ConfigurationError("replica name must be non-empty")
        self.name = name
        self.flavor = flavor
        self.tenants = list(tenants)
        self.gateway_config = gateway_config
        self.backend_factory = backend_factory or modeled_backends(flavor)
        self.state = ReplicaState.STARTING
        self.alive = True
        self.gateway: Optional[ServingGateway] = None
        self.generation = 0

    # ----------------------------------------------------------- lifecycle
    def attach(self, sim: Simulator) -> ServingGateway:
        """Build a fresh gateway on the shared kernel (start/restart)."""
        backends = list(self.backend_factory(self.name))
        gateway = ServingGateway(
            backends, self.tenants, config=self.gateway_config
        )
        gateway.attach(sim, admission=False)
        self.gateway = gateway
        self.state = ReplicaState.STARTING
        self.alive = True
        self.generation += 1
        return gateway

    def mark_healthy(self) -> None:
        if not self.alive or self.state is not ReplicaState.STARTING:
            raise SimulationError(
                f"replica {self.name} cannot turn healthy from {self.state}"
            )
        self.state = ReplicaState.HEALTHY

    def begin_drain(self) -> None:
        if self.gateway is None:
            raise SimulationError(f"replica {self.name} never attached")
        self.state = ReplicaState.DRAINING
        self.gateway.begin_drain()

    @property
    def drained(self) -> bool:
        return self.gateway is not None and self.gateway.drained

    def retire(self) -> None:
        """Finish a drain: verify the queue emptied, then go DOWN."""
        if self.gateway is None:
            raise SimulationError(f"replica {self.name} never attached")
        self.gateway.assert_drained()
        self.state = ReplicaState.DOWN

    # ------------------------------------------------------------- failure
    def fail(self) -> None:
        """Kill switch: backend dies, in-flight work is stranded."""
        if self.gateway is None:
            raise SimulationError(f"replica {self.name} never attached")
        self.alive = False
        self.state = ReplicaState.FAILED
        self.gateway.halt()

    def evacuate(self):
        """Hand the stranded admitted work to the cluster for re-route."""
        if self.gateway is None:
            raise SimulationError(f"replica {self.name} never attached")
        return self.gateway.evacuate()

    # ---------------------------------------------------------------- load
    def load(self) -> GatewayLoad:
        if self.gateway is None or not self.alive:
            return GatewayLoad(
                queue_depth=0, in_flight_batches=0, in_flight_roots=0
            )
        return self.gateway.load()

    @property
    def active(self) -> bool:
        """Billing and capacity accrue in these states."""
        return self.state in (
            ReplicaState.STARTING,
            ReplicaState.HEALTHY,
            ReplicaState.DRAINING,
        )
