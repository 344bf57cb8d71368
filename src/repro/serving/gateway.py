"""The admission-controlled serving gateway.

The online path the paper's Challenge-1 is about: per-tenant request
streams hit an admission controller (token-bucket fair share + a
bounded pending queue), admitted requests are coalesced *across
tenants* into dynamic micro-batches (flush on a root-count budget, a
request-count cap, or a max-wait timer — whichever first), and an
earliest-deadline-first scheduler dispatches batches onto the first
healthy backend with a free slot.

Two properties the tests pin down:

* **Backpressure, not collapse** — when offered load exceeds the fair
  share or the pending queue bound, requests are refused immediately
  with a retry-after hint; admitted requests are *never* dropped, so
  admitted-latency tails stay bounded under overload.
* **Graceful degradation** — a backend failure strands its in-flight
  micro-batches; the gateway invalidates their completions, re-queues
  the batches (counted as retried, not shed), and later dispatches
  fall through to the surviving backends.

Everything runs on the deterministic event kernel
(:mod:`repro.axe.events`): arrivals, flush timers, completions, and
fault injections are events, so a run is a pure function of its seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.axe.events import Simulator
from repro.serving.backends import ServingBackend
from repro.serving.metrics import MetricsRegistry, ServingReport
from repro.serving.scheduler import SloScheduler
from repro.serving.workload import Arrival, TenantSpec, generate_arrivals
from repro.units import US


@dataclass(frozen=True)
class GatewayConfig:
    """Admission, batching, and fair-share parameters."""

    #: Flush a micro-batch once it holds this many roots...
    batch_root_budget: int = 32
    #: ...or this many coalesced requests...
    max_batch_requests: int = 16
    #: ...or once its oldest member has waited this long.
    max_wait_s: float = 2e-3
    #: Bound on admitted-but-undispatched requests (backpressure).
    queue_capacity: int = 256
    #: Token-bucket rate = headroom * tenant fair-share rate.
    token_rate_headroom: float = 1.4
    #: Token-bucket burst capacity (absorbs Poisson clumping).
    token_burst: float = 8.0

    def __post_init__(self) -> None:
        if self.batch_root_budget <= 0 or self.max_batch_requests <= 0:
            raise ConfigurationError("batch budget and request cap must be positive")
        if self.max_wait_s <= 0:
            raise ConfigurationError(
                f"max_wait_s must be positive, got {self.max_wait_s}"
            )
        if self.queue_capacity <= 0:
            raise ConfigurationError(
                f"queue_capacity must be positive, got {self.queue_capacity}"
            )
        if self.token_rate_headroom <= 0:
            raise ConfigurationError(
                f"token_rate_headroom must be positive, got {self.token_rate_headroom}"
            )
        if self.token_burst < 1:
            raise ConfigurationError(
                f"token_burst must be at least 1, got {self.token_burst}"
            )


@dataclass(frozen=True)
class ShedResponse:
    """The refusal returned to a shed request (backpressure signal)."""

    tenant: str
    time_s: float
    reason: str
    retry_after_s: float


@dataclass(frozen=True)
class GatewayLoad:
    """Instantaneous load snapshot a cluster router balances on.

    ``queue_depth`` counts admitted-but-undispatched requests;
    ``in_flight_roots`` counts roots currently occupying backend slots
    (the work that must finish before a drain can complete).
    """

    queue_depth: int
    in_flight_batches: int
    in_flight_roots: int

    @property
    def score(self) -> int:
        """Scalar ordering key for least-loaded routing."""
        return self.queue_depth + self.in_flight_roots


class MicroBatch:
    """Requests coalesced across tenants sharing one fanout shape."""

    def __init__(self, requests: List[Arrival], fanouts: Tuple[int, ...]) -> None:
        self.requests = requests
        self.fanouts = fanouts
        self.roots = np.concatenate([r.roots for r in requests])
        #: EDF key: the tightest member deadline.
        self.deadline_s = min(r.deadline_s for r in requests)
        #: Whether this batch already left the pending-queue accounting
        #: (a failure re-dispatch must not decrement it twice).
        self.dispatched = False

    @property
    def num_requests(self) -> int:
        return len(self.requests)

    @property
    def num_roots(self) -> int:
        return int(self.roots.size)


class _InFlight:
    """One dispatched batch; ``valid`` is cleared by fault injection."""

    def __init__(self, batch: MicroBatch, backend: str, service_s: float) -> None:
        self.batch = batch
        self.backend = backend
        self.service_s = service_s
        self.valid = True


class ServingGateway:
    """Admission control, micro-batching, and dispatch over backends.

    ``backends`` is a priority list: dispatch prefers the earliest
    healthy entry with a free slot (put the hardware path first).
    """

    def __init__(
        self,
        backends: Sequence[ServingBackend],
        tenants: Sequence[TenantSpec],
        config: Optional[GatewayConfig] = None,
    ) -> None:
        if not backends:
            raise ConfigurationError("at least one backend is required")
        if not tenants:
            raise ConfigurationError("at least one tenant is required")
        names = [b.name for b in backends]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"backend names must be unique, got {names}")
        self.backends = list(backends)
        self.tenants = list(tenants)
        self.config = config or GatewayConfig()
        self.shed_responses: List[ShedResponse] = []
        #: Optional observer fired with ``(batch, payload)`` on completion.
        self.on_batch_complete: Optional[Callable[[MicroBatch, object], None]] = None
        #: Optional observer fired with each :class:`ShedResponse`.
        self.on_shed: Optional[Callable[[Arrival, ShedResponse], None]] = None
        self._fault_schedule: Dict[str, float] = {}
        self._attached = False
        self._draining = False
        self._halted = False

    # -------------------------------------------------------------- faults
    def inject_backend_failure(self, backend_name: str, at_s: float) -> None:
        """Schedule ``backend_name`` to die at ``at_s`` into the run."""
        if backend_name not in {b.name for b in self.backends}:
            raise ConfigurationError(f"unknown backend {backend_name!r}")
        if at_s < 0:
            raise ConfigurationError(f"at_s must be non-negative, got {at_s}")
        self._fault_schedule[backend_name] = at_s

    # -------------------------------------------------------------- attach
    def attach(
        self, sim: Simulator, metrics: MetricsRegistry, admission: bool = True
    ) -> None:
        """Bind this gateway to an event kernel and a request ledger.

        Cluster mode: a :class:`~repro.cluster.sim.ClusterSim` runs many
        gateways on one shared simulator, delivers arrivals itself, and
        passes every gateway the cluster's one ``metrics`` registry, so
        a request evacuated off a failed replica completes in the same
        ledger that counted its offer. ``admission=False`` disables the
        per-tenant token buckets (the cluster router admission-controls
        centrally before routing); the queue-capacity backpressure stays
        local.
        """
        self._sim = sim
        self._admission = admission
        self.metrics = metrics
        self.scheduler = SloScheduler()
        self.shed_responses = []
        self._groups: Dict[Tuple[int, ...], List[Arrival]] = {}
        self._group_roots: Dict[Tuple[int, ...], int] = {}
        self._group_gen: Dict[Tuple[int, ...], int] = {}
        self._pending = 0
        self._free_slots: Dict[str, int] = {}
        self._in_flight: Dict[str, List[_InFlight]] = {}
        self._attached = True
        self._draining = False
        self._halted = False
        #: EWMA of observed service time per request — the queue_full
        #: retry-after hint scales with it.
        self._drain_per_request_s = 1e-3

        for spec in self.tenants:
            self.scheduler.register_tenant(
                spec.name,
                rate=self.config.token_rate_headroom * spec.fair_share_rps,
                burst=self.config.token_burst,
            )
            self.metrics.register_tenant(spec.name, spec.slo_s)
        for backend in self.backends:
            self._free_slots[backend.name] = backend.concurrency
            self._in_flight[backend.name] = []
            self.metrics.register_backend(backend.name, backend.concurrency)

    # ----------------------------------------------------------------- run
    def run(
        self,
        arrivals: Sequence[Arrival],
        duration_s: float,
        events: Optional[Sequence[Tuple[float, Callable[[], None]]]] = None,
    ) -> ServingReport:
        """Replay ``arrivals`` through the gateway; runs to full drain.

        ``events`` is an optional auxiliary timeline of ``(time_s,
        callback)`` pairs scheduled on the same virtual clock — the
        ingest path uses it to interleave graph mutations with the read
        traffic (each callback applies a mutation batch to the store).
        Callbacks fire between event-kernel steps, never inside a
        backend's ``execute``, so a micro-batch's pinned sample window
        is never torn by construction.
        """
        if duration_s <= 0:
            raise ConfigurationError(
                f"duration_s must be positive, got {duration_s}"
            )
        sim = Simulator()
        self.attach(sim, MetricsRegistry())
        for name, at_s in self._fault_schedule.items():
            sim.at(at_s, lambda n=name: self._on_fault(n))
        for arrival in arrivals:
            sim.at(arrival.time_s, lambda a=arrival: self._submit(a))
        if events:
            for time_s, callback in events:
                if time_s < 0:
                    raise ConfigurationError(
                        f"event time_s must be non-negative, got {time_s}"
                    )
                sim.at(time_s, callback)
        store_paths = self._store_fault_paths()
        baselines = [path.stats.copy() for path in store_paths]
        sim.run()
        self._collect_store_faults(store_paths, baselines)
        return self.metrics.snapshot(duration_s=duration_s, drain_s=sim.now)

    # ------------------------------------------------------- load and drain
    def load(self) -> GatewayLoad:
        """Instantaneous load: queue depth plus in-flight work."""
        batches = sum(len(v) for v in self._in_flight.values())
        roots = sum(
            entry.batch.num_roots
            for entries in self._in_flight.values()
            for entry in entries
        )
        return GatewayLoad(
            queue_depth=self._pending,
            in_flight_batches=batches,
            in_flight_roots=roots,
        )

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def halted(self) -> bool:
        return self._halted

    def begin_drain(self) -> None:
        """Stop accepting work; in-flight and queued batches finish.

        New submissions are shed with reason ``"draining"`` and a
        retry-after hint sized to the remaining backlog. The caller
        (cluster scale-down) should already have unrouted this gateway;
        shedding covers the race where traffic is still in flight.
        """
        self._draining = True

    @property
    def drained(self) -> bool:
        """True once no admitted request remains queued or in flight."""
        return (
            self._pending == 0
            and len(self.scheduler) == 0
            and all(not entries for entries in self._in_flight.values())
        )

    def assert_drained(self) -> None:
        """Raise unless the drain actually ran the queue empty."""
        if not self._draining:
            raise SimulationError("assert_drained() before begin_drain()")
        if not self.drained:
            load = self.load()
            raise SimulationError(
                f"drain incomplete: {load.queue_depth} queued, "
                f"{load.in_flight_batches} batches in flight"
            )

    # ----------------------------------------------------- failure recovery
    def halt(self) -> None:
        """Hard-stop (replica kill): nothing dispatches or completes.

        In-flight batches are invalidated — their completions will fire
        on the shared simulator but no longer count. The admitted work
        stays collectable via :meth:`evacuate` so a cluster can re-route
        it instead of losing it.
        """
        self._halted = True
        for entries in self._in_flight.values():
            for entry in entries:
                entry.valid = False

    def evacuate(self) -> List[Arrival]:
        """Strip every admitted-but-incomplete request for re-routing.

        Collects, in admission order: coalescing groups that never
        flushed, ready batches the scheduler holds, and in-flight
        batches stranded by :meth:`halt`. Leaves the gateway empty
        (``drained``); the caller owns re-submission and its retried
        accounting.
        """
        orphans: List[Arrival] = []
        for key, group in self._groups.items():
            orphans.extend(group)
            group.clear()
            self._group_roots[key] = 0
            self._group_gen[key] = self._group_gen.get(key, 0) + 1
        while len(self.scheduler):
            batch = self.scheduler.pop()
            orphans.extend(batch.requests)
        for entries in self._in_flight.values():
            for entry in entries:
                entry.valid = False
                orphans.extend(entry.batch.requests)
            entries.clear()
        self._pending = 0
        orphans.sort(key=lambda a: (a.time_s, a.seq))
        return orphans

    def _store_fault_paths(self) -> List[object]:
        """Reliable read paths under this gateway's functional backends."""
        paths: List[object] = []
        for backend in self.backends:
            sampler = getattr(backend, "sampler", None)
            store = getattr(sampler, "store", None)
            path = getattr(store, "reliability", None)
            if path is not None and all(path is not p for p in paths):
                paths.append(path)
        return paths

    def _collect_store_faults(self, paths, baselines) -> None:
        """Surface store-level retry/hedge counters accrued this run."""
        if not paths:
            return
        total = None
        for path, baseline in zip(paths, baselines):
            delta = path.stats.minus(baseline)
            if total is None:
                total = delta
            else:
                for field in vars(delta):
                    setattr(
                        total, field,
                        getattr(total, field) + getattr(delta, field),
                    )
        self.metrics.on_store_faults(total)

    # ------------------------------------------------------------ admission
    def _shed(self, arrival: Arrival, reason: str, retry_after_s: float) -> None:
        self.metrics.on_shed(arrival.tenant, reason)
        response = ShedResponse(
            tenant=arrival.tenant,
            time_s=self._sim.now,
            reason=reason,
            retry_after_s=retry_after_s,
        )
        self.shed_responses.append(response)
        if self.on_shed is not None:
            self.on_shed(arrival, response)

    def _backlog_estimate_s(self) -> float:
        """Retry-after hint sized to the current backlog."""
        return max(
            self.config.max_wait_s,
            self._pending * self._drain_per_request_s
            / max(1, sum(b.concurrency for b in self.backends)),
        )

    def submit(self, arrival: Arrival) -> None:
        """Offer one request at the current simulator time.

        The external-driver counterpart of the arrival events
        :meth:`run` schedules: admission control (unless the gateway is
        attached with ``admission=False``), queue backpressure, then
        coalescing.
        """
        self._submit(arrival)

    def submit_admitted(self, arrival: Arrival) -> None:
        """Accept a request the cluster admitted (routing or re-route).

        Skips admission and the queue-capacity check: the cluster ran
        both, and dropping a re-routed request would turn an accepted
        request into a loss. Records its queue depth, not an admission:
        the cluster recorded that once. Draining gateways still refuse —
        re-routing must pick an accepting replica.
        """
        if self._halted:
            raise SimulationError(
                f"submit_admitted on halted gateway for {arrival.tenant!r}"
            )
        if self._draining:
            raise SimulationError(
                f"submit_admitted on draining gateway for {arrival.tenant!r}"
            )
        self._pending += 1
        self.metrics.on_queue_depth(self._pending)
        self._coalesce(arrival)

    def _submit(self, arrival: Arrival) -> None:
        if self._halted:
            raise SimulationError(
                f"submit on halted gateway for {arrival.tenant!r}"
            )
        now = self._sim.now
        self.metrics.on_offered(arrival.tenant)
        if self._draining:
            self._shed(arrival, "draining", self._backlog_estimate_s())
            return
        if self._admission:
            retry_after = self.scheduler.admit(arrival.tenant, now)
            if retry_after is not None:
                self._shed(arrival, "rate_limited", retry_after)
                return
        if self._pending >= self.config.queue_capacity:
            self._shed(arrival, "queue_full", self._backlog_estimate_s())
            return
        self._pending += 1
        self.metrics.on_admitted(arrival.tenant, self._pending)
        self._coalesce(arrival)

    def _coalesce(self, arrival: Arrival) -> None:
        key = arrival.fanouts
        group = self._groups.setdefault(key, [])
        group.append(arrival)
        self._group_roots[key] = (
            self._group_roots.get(key, 0) + arrival.num_roots
        )
        if (
            self._group_roots[key] >= self.config.batch_root_budget
            or len(group) >= self.config.max_batch_requests
        ):
            self._flush(key)
        elif len(group) == 1:
            generation = self._group_gen.get(key, 0)
            self._sim.after(
                self.config.max_wait_s,
                lambda k=key, g=generation: self._flush_if_stale(k, g),
            )

    # ------------------------------------------------------------- batching
    def _flush_if_stale(self, key: Tuple[int, ...], generation: int) -> None:
        if self._group_gen.get(key, 0) != generation:
            return
        self._flush(key)

    def _flush(self, key: Tuple[int, ...]) -> None:
        if self._halted:
            return
        group = self._groups.get(key)
        if not group:
            return
        self._group_gen[key] = self._group_gen.get(key, 0) + 1
        batch = MicroBatch(list(group), key)
        group.clear()
        self._group_roots[key] = 0
        self.metrics.on_batch(batch.num_requests, batch.num_roots)
        self.scheduler.push(batch.deadline_s, batch)
        self._dispatch()

    # ------------------------------------------------------------- dispatch
    def _pick_backend(self) -> Optional[ServingBackend]:
        for backend in self.backends:
            if backend.healthy and self._free_slots[backend.name] > 0:
                return backend
        return None

    def _dispatch(self) -> None:
        if self._halted:
            return
        while len(self.scheduler):
            backend = self._pick_backend()
            if backend is None:
                return
            batch = self.scheduler.pop()
            self._free_slots[backend.name] -= 1
            if not batch.dispatched:
                batch.dispatched = True
                self._pending -= batch.num_requests
            result = backend.execute(batch.roots, batch.fanouts)
            self.metrics.on_dispatch(
                backend.name, batch.num_requests, result.service_s
            )
            entry = _InFlight(batch, backend.name, result.service_s)
            self._in_flight[backend.name].append(entry)
            self._sim.after(
                result.service_s,
                lambda e=entry, p=result.payload: self._complete(e, p),
            )

    def _complete(self, entry: _InFlight, payload: object) -> None:
        if not entry.valid:
            return
        self._in_flight[entry.backend].remove(entry)
        self._free_slots[entry.backend] += 1
        now = self._sim.now
        for arrival in entry.batch.requests:
            self.metrics.on_completed(arrival.tenant, now - arrival.time_s)
        self._drain_per_request_s = 0.8 * self._drain_per_request_s + 0.2 * (
            entry.service_s / entry.batch.num_requests
        )
        if self.on_batch_complete is not None:
            self.on_batch_complete(entry.batch, payload)
        self._dispatch()

    # --------------------------------------------------------------- faults
    def _on_fault(self, backend_name: str) -> None:
        backend = next(b for b in self.backends if b.name == backend_name)
        if not backend.healthy:
            return
        backend.fail()
        stranded = self._in_flight[backend_name]
        self._in_flight[backend_name] = []
        for entry in stranded:
            entry.valid = False
            self.metrics.on_retried(entry.batch.num_requests)
            self.scheduler.push(entry.batch.deadline_s, entry.batch)
        self._dispatch()


def serve_workload(
    backends: Sequence[ServingBackend],
    tenants: Sequence[TenantSpec],
    duration_s: float,
    num_nodes: int,
    seed: int = 0,
    config: Optional[GatewayConfig] = None,
    fail_backend_at: Optional[Dict[str, float]] = None,
    events: Optional[Sequence[Tuple[float, Callable[[], None]]]] = None,
) -> ServingReport:
    """Generate the tenants' open-loop workload and run it end-to-end.

    ``events`` threads an auxiliary ``(time_s, callback)`` timeline
    (e.g. graph-mutation batches) into the run; see
    :meth:`ServingGateway.run`.
    """
    gateway = ServingGateway(backends, tenants, config=config)
    if fail_backend_at:
        for name, at_s in fail_backend_at.items():
            gateway.inject_backend_failure(name, at_s)
    arrivals = generate_arrivals(
        tenants, duration_s=duration_s, num_nodes=num_nodes, seed=seed
    )
    return gateway.run(arrivals, duration_s=duration_s, events=events)


def serve_closed_loop(
    backends: Sequence[ServingBackend],
    workers: int,
    batches_per_worker: int,
    batch_size: int = 64,
    fanouts: Tuple[int, ...] = (10, 10),
    *,
    num_nodes: int,
    seed: int = 0,
    slo_s: float = 20e-3,
    config: Optional[GatewayConfig] = None,
) -> ServingReport:
    """Drive the gateway in a closed loop (the Challenge-1 scenario).

    ``workers`` training/inference workers each sample
    ``batches_per_worker`` batches of ``batch_size`` roots, issuing the
    next batch only when the previous one completes, so the offered
    load is the worker count, not a rate. Each worker is one tenant:
    per-worker latencies and misses of the ``slo_s`` deadline are the
    report's :class:`TenantReport` entries. There is no rate to police,
    so the token buckets are off; the queue bound still applies, and a
    worker whose request is shed stops — ``offered == completed +
    shed`` and the run terminates. ``duration_s`` is the drain time, so
    ``completed_qps`` is the loop's throughput.
    """
    if min(workers, batches_per_worker, num_nodes) < 1:
        raise ConfigurationError(
            "workers, batches_per_worker and num_nodes must be at least 1, "
            f"got {workers}, {batches_per_worker}, {num_nodes}"
        )
    fanouts = tuple(fanouts)
    # rate_rps only feeds the token buckets, which a closed loop disables.
    tenants = [
        TenantSpec(
            f"worker{index}",
            rate_rps=1.0,
            roots_per_request=batch_size,
            fanouts=fanouts,
            slo_s=slo_s,
        )
        for index in range(workers)
    ]
    gateway = ServingGateway(backends, tenants, config=config)
    sim = Simulator()
    gateway.attach(sim, MetricsRegistry(), admission=False)
    rng = np.random.default_rng(seed)
    remaining = {spec.name: batches_per_worker for spec in tenants}
    sequence = count()

    def issue(worker: str) -> None:
        if remaining[worker] == 0:
            return
        remaining[worker] -= 1
        roots = rng.integers(0, num_nodes, size=batch_size, dtype=np.int64)
        gateway.submit(
            Arrival(sim.now, worker, roots, fanouts, slo_s, next(sequence))
        )

    def reissue(batch: MicroBatch, _payload: object) -> None:
        for arrival in batch.requests:
            issue(arrival.tenant)

    gateway.on_batch_complete = reissue
    for index, spec in enumerate(tenants):
        sim.at(index * US, lambda worker=spec.name: issue(worker))
    sim.run()
    return gateway.metrics.snapshot(duration_s=sim.now, drain_s=sim.now)
