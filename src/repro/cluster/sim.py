"""The multi-replica serving cluster, end to end.

One deterministic event kernel (:class:`repro.axe.events.Simulator`)
drives everything: the trace's arrivals, every replica gateway's
coalescing timers and batch completions, health probes, autoscaler
ticks, drain checks, and injected replica kills. The cluster layer
sits where a real front door would:

* **admission** — per-tenant token buckets at the cluster edge
  (replica gateways attach with ``admission=False``; admitting per
  replica would multiply every tenant's contract by the replica
  count);
* **accounting** — one :class:`~repro.serving.metrics.MetricsRegistry`
  for the run: the cluster records offers and edge sheds into it, and
  every replica gateway, across restarts, records its completions into
  the same registry;
* **routing** — a pluggable :class:`~repro.cluster.router.Router` over
  the healthy members, with connection-level redirect when the router
  picks a dead-but-undetected replica and queue-pressure spill when the
  picked member is full;
* **scaling** — an :class:`~repro.cluster.autoscaler.Autoscaler`
  reconciling a policy's target fleet with spawn/drain actions;
* **recovery** — the health monitor detects kills, stranded work is
  :meth:`~repro.serving.gateway.ServingGateway.evacuate`\\ d onto
  survivors, and the replica hot-restarts with a fresh gateway.

The no-loss invariant the kill test pins down: every offered request
is either completed or explicitly shed with a retry-after hint —
``offered == completed + shed`` once the queue runs dry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError, SimulationError
from repro.axe.events import Simulator
from repro.cluster.autoscaler import (
    Autoscaler,
    ClusterSnapshot,
    DemandForecast,
    ScalingPolicy,
    get_policy,
)
from repro.cluster.health import HealthMonitor
from repro.cluster.replica import (
    BackendFactory,
    ClusterReplica,
    ReplicaFlavor,
    flavor_catalog,
)
from repro.cluster.report import ClusterMetrics, ClusterReport, build_report
from repro.cluster.router import get_router
from repro.cluster.trace import TraceConfig, generate_trace
from repro.serving.gateway import GatewayConfig, GatewayLoad
from repro.serving.metrics import MetricsRegistry
from repro.serving.scheduler import TokenBucket
from repro.serving.workload import Arrival

#: Architectures offered to the autoscaler as replica flavors.
ARCHS = (
    "base.tc",
    "base.decp",
    "cost-opt.tc",
    "cost-opt.decp",
    "comm-opt.tc",
    "comm-opt.decp",
    "mem-opt.tc",
    "mem-opt.decp",
)
#: Workload point the flavors are rated and priced at.
SIZE = "medium"
DATASET = "ss"
#: Maps fleet-scale architecture throughput onto the compressed trace's
#: demand scale (same factor for every flavor).
CAPACITY_SCALE = 0.03
#: Every replica gateway's batching and queue bound.
GATEWAY = GatewayConfig()
#: Cluster-edge admission: tokens at ``ADMISSION_HEADROOM x`` each
#: tenant's mean rate. Generous by design — it is overload protection,
#: not a rate plan; the autoscaler is supposed to absorb the diurnal
#: swing.
ADMISSION_HEADROOM = 4.0
ADMISSION_BURST = 64.0
#: Cold-start delay before a spawned replica turns healthy.
STARTUP_DELAY_S = 0.15
#: Delay between failure detection and the hot restart.
RESTART_DELAY_S = 0.2
SCALE_DOWN_COOLDOWN_S = 0.5


@dataclass(frozen=True)
class ClusterConfig:
    """The run's knobs; everything else a run depends on is a constant
    above (plus the trace)."""

    policy: str = "cost"
    router: str = "least-loaded"
    #: Autoscaler control loop cadence (also the observation window).
    tick_interval_s: float = 0.25
    #: Inject a replica kill at each listed virtual time.
    kill_at_s: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.tick_interval_s <= 0:
            raise ConfigurationError(
                f"tick_interval_s must be positive, got "
                f"{self.tick_interval_s}"
            )
        for at_s in self.kill_at_s:
            if at_s < 0:
                raise ConfigurationError(
                    f"kill_at_s must be non-negative, got {at_s}"
                )


class ClusterSim:
    """One policy's run over one trace on one shared event kernel."""

    def __init__(
        self,
        trace_config: TraceConfig,
        config: Optional[ClusterConfig] = None,
        policy: Optional[ScalingPolicy] = None,
        backend_factories: Optional[Dict[str, BackendFactory]] = None,
    ) -> None:
        self.trace_config = trace_config
        self.config = config or ClusterConfig()
        self.policy = policy or get_policy(self.config.policy)
        self.router = get_router(self.config.router)
        self.catalog: Dict[str, ReplicaFlavor] = flavor_catalog(
            ARCHS, size=SIZE, dataset=DATASET, capacity_scale=CAPACITY_SCALE
        )
        #: Optional per-arch backend factory override (session-backed
        #: replicas); default is the flavor's modeled backend.
        self.backend_factories = backend_factories or {}
        self.autoscaler = Autoscaler(
            self.policy,
            self.catalog,
            scale_down_cooldown_s=SCALE_DOWN_COOLDOWN_S,
        )
        #: The run's one request ledger; every replica gateway records
        #: into it.
        self.ledger = MetricsRegistry()
        self.metrics = ClusterMetrics()
        self.sim = Simulator()
        self.replicas: Dict[str, ClusterReplica] = {}
        self._spawn_order: List[str] = []
        self._spawn_counter = 0
        self.health = HealthMonitor()
        self._admission: Dict[str, TokenBucket] = {}
        self._parked: List[Arrival] = []
        self._window_roots = 0
        self._active_since: Dict[str, float] = {}
        self._horizon_s = trace_config.duration_s
        self._ran = False

        for spec in trace_config.tenant_specs():
            self.ledger.register_tenant(spec.name, spec.slo_s)
            self._admission[spec.name] = TokenBucket(
                rate=spec.rate_rps * ADMISSION_HEADROOM, burst=ADMISSION_BURST
            )

    # -------------------------------------------------------------- billing
    def _billing_start(self, replica: ClusterReplica) -> None:
        self._active_since[replica.name] = self.sim.now

    def _billing_stop(self, replica: ClusterReplica) -> None:
        since = self._active_since.pop(replica.name, None)
        if since is not None:
            self.metrics.on_replica_active_s(
                replica.flavor.arch, self.sim.now - since
            )

    def _billing_finalize(self) -> None:
        for name in list(self._active_since):
            self._billing_stop(self.replicas[name])

    # ------------------------------------------------------------ lifecycle
    def _spawn(self, arch: str, warm: bool = False) -> ClusterReplica:
        flavor = self.catalog[arch]
        self._spawn_counter += 1
        name = f"r{self._spawn_counter}-{arch}"
        replica = ClusterReplica(
            name,
            flavor,
            self.trace_config.tenant_specs(),
            gateway_config=GATEWAY,
            backend_factory=self.backend_factories.get(arch),
        )
        self.replicas[name] = replica
        self._spawn_order.append(name)
        self.metrics.replica_launches += 1
        self._attach(replica)
        if warm:
            self._turn_healthy(replica)
        else:
            self.sim.after(
                STARTUP_DELAY_S,
                lambda r=replica: self._turn_healthy(r),
            )
        return replica

    def _attach(self, replica: ClusterReplica) -> None:
        replica.attach(self.sim, self.ledger)
        self._billing_start(replica)

    def _turn_healthy(self, replica: ClusterReplica) -> None:
        if not replica.alive:
            return  # killed while starting; detection path owns it
        replica.mark_healthy()
        self.router.add_replica(replica.name)
        self.health.watch(replica)
        self._flush_parked()

    def _begin_drain(self, name: str) -> None:
        replica = self.replicas[name]
        if name in self.router.members:
            self.router.remove_replica(name)
        if name in self.health.watched:
            self.health.unwatch(name)
        replica.begin_drain()
        self.metrics.replica_drains += 1
        self._check_drained(replica)

    def _check_drained(self, replica: ClusterReplica) -> None:
        if not replica.alive:
            return  # killed mid-drain; detection path owns it
        if replica.drained:
            replica.retire()
            self._billing_stop(replica)
            return
        self.sim.after(
            GATEWAY.max_wait_s,
            lambda r=replica: self._check_drained(r),
        )

    # -------------------------------------------------------------- routing
    def _routed_loads(self) -> Dict[str, GatewayLoad]:
        return {
            name: self.replicas[name].load() for name in self.router.members
        }

    def _accepting_members(self) -> List[str]:
        """Routed members that are alive (dead ones await detection)."""
        return [
            name
            for name in self.router.members
            if self.replicas[name].alive
        ]

    def _least_loaded(
        self, members: List[str], loads: Dict[str, GatewayLoad]
    ) -> str:
        best = members[0]
        best_score = loads[best].score
        for name in members[1:]:
            if loads[name].score < best_score:
                best, best_score = name, loads[name].score
        return best

    def _on_arrival(self, arrival: Arrival) -> None:
        self.ledger.on_offered(arrival.tenant)
        self._window_roots += int(arrival.roots.size)
        now = self.sim.now
        bucket = self._admission[arrival.tenant]
        if not bucket.try_take(now):
            self.ledger.on_shed(arrival.tenant, "rate_limited")
            return
        members = self._accepting_members()
        if not members:
            self.ledger.on_shed(arrival.tenant, "no_capacity")
            return
        loads = self._routed_loads()
        chosen = self.router.route(arrival.tenant, loads)
        if chosen not in members:
            # Connection refused by a dead-but-undetected member: the
            # client redirects instantly; admitted work on that replica
            # still waits for the health monitor.
            self.metrics.redirected_requests += 1
            chosen = self._least_loaded(members, loads)
        if loads[chosen].queue_depth >= GATEWAY.queue_capacity:
            spill = self._least_loaded(members, loads)
            if loads[spill].queue_depth >= GATEWAY.queue_capacity:
                self.ledger.on_shed(arrival.tenant, "queue_full")
                return
            chosen = spill
        gateway = self.replicas[chosen].gateway
        assert gateway is not None
        # Admitted here, once: a re-route after a kill is no admission.
        self.ledger.on_admitted(arrival.tenant, loads[chosen].queue_depth + 1)
        gateway.submit_admitted(arrival)

    # ------------------------------------------------------------- recovery
    def _inject_kill(self) -> None:
        members = self._accepting_members()
        if not members:
            return
        loads = self._routed_loads()
        # Kill the most-loaded member: the worst case for evacuation.
        victim = members[0]
        for name in members[1:]:
            if loads[name].score > loads[victim].score:
                victim = name
        replica = self.replicas[victim]
        replica.fail()
        self.metrics.replica_failures += 1
        self._billing_stop(replica)

    def _probe(self) -> None:
        for replica in self.health.probe_all():
            if replica.name in self.router.members:
                self.router.remove_replica(replica.name)
            orphans = replica.evacuate()
            self.metrics.evacuated_requests += len(orphans)
            self._resubmit(orphans)
            self.sim.after(
                RESTART_DELAY_S,
                lambda r=replica: self._restart(r),
            )
        watching_dead = any(
            not self.replicas[name].alive for name in self.health.watched
        )
        if self.sim.now < self._horizon_s or watching_dead:
            self.sim.after(HealthMonitor.PROBE_INTERVAL_S, self._probe)

    def _restart(self, replica: ClusterReplica) -> None:
        self.metrics.replica_restarts += 1
        self._attach(replica)
        self.sim.after(
            STARTUP_DELAY_S,
            lambda r=replica: self._turn_healthy(r),
        )

    def _resubmit(self, orphans: List[Arrival]) -> None:
        """Re-route evacuated work; park it if no member can take it."""
        for arrival in orphans:
            members = self._accepting_members()
            if not members:
                self._parked.append(arrival)
                continue
            loads = self._routed_loads()
            chosen = self._least_loaded(members, loads)
            gateway = self.replicas[chosen].gateway
            assert gateway is not None
            gateway.submit_admitted(arrival)

    def _flush_parked(self) -> None:
        if not self._parked:
            return
        parked, self._parked = self._parked, []
        self._resubmit(parked)

    # -------------------------------------------------------------- scaling
    def _active_fleet(self) -> List[Tuple[str, str]]:
        return [
            (name, self.replicas[name].flavor.arch)
            for name in self._spawn_order
            if self.replicas[name].active and self.replicas[name].alive
        ]

    def _tick(self) -> None:
        now = self.sim.now
        observed = self._window_roots / self.config.tick_interval_s
        self._window_roots = 0
        active = self._active_fleet()
        snapshot = ClusterSnapshot(
            time_s=now,
            observed_roots_per_s=observed,
            active=tuple(active),
            loads=self._routed_loads(),
        )
        self.metrics.fleet_samples.append((now, len(active)))
        plan = self.autoscaler.plan(snapshot)
        for arch in plan.spawn:
            self._spawn(arch)
        for name in plan.drain:
            self._begin_drain(name)
        if now + self.config.tick_interval_s <= self._horizon_s:
            self.sim.after(self.config.tick_interval_s, self._tick)

    # ------------------------------------------------------------------ run
    def run(self) -> ClusterReport:
        if self._ran:
            raise SimulationError("ClusterSim.run() is single-shot")
        self._ran = True
        arrivals = generate_trace(self.trace_config)
        forecast = DemandForecast(
            mean_roots_per_s=sum(
                self.trace_config.total_rps * t.share * t.roots_per_request
                for t in self.trace_config.tenants
            ),
            peak_roots_per_s=self.trace_config.peak_roots_per_second(),
        )
        for arch in self.autoscaler.initial_fleet(forecast):
            self._spawn(arch, warm=True)
        self.metrics.fleet_samples.append((0.0, len(self._active_fleet())))
        for arrival in arrivals:
            self.sim.at(
                arrival.time_s, lambda a=arrival: self._on_arrival(a)
            )
        for kill_s in self.config.kill_at_s:
            self.sim.at(kill_s, self._inject_kill)
        self.sim.after(HealthMonitor.PROBE_INTERVAL_S, self._probe)
        self.sim.after(self.config.tick_interval_s, self._tick)
        self.sim.run()
        if self._parked:
            raise SimulationError(
                f"{len(self._parked)} evacuated requests never re-routed"
            )
        self._billing_finalize()
        duration_s = max(self.sim.now, self.trace_config.duration_s)
        return build_report(
            self.metrics,
            self.ledger.snapshot(duration_s=duration_s, drain_s=self.sim.now),
            policy=self.policy.name,
            router=self.router.policy,
            duration_s=duration_s,
            catalog=self.catalog,
        )


def run_cluster(
    trace_config: TraceConfig,
    config: Optional[ClusterConfig] = None,
) -> ClusterReport:
    """Convenience one-shot: build a cluster and run the trace."""
    return ClusterSim(trace_config, config=config).run()
