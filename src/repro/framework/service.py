"""Event-driven server/worker service simulation.

The analytical vCPU model (:mod:`repro.framework.cpu_model`) captures
average throughput; this module captures what averages hide — queueing.
Workers issue per-hop batched RPCs to hash-partitioned graph servers;
servers process with bounded vCPU concurrency; the simulation records
per-batch latency distributions. This substantiates Challenge-1's
latency claim: "the long latency could result in ... the failure of
meeting real-time deadline in some inference scenarios".

With a :class:`~repro.memstore.retry.RetryPolicy` configured, the
worker side also models the availability story: each logical shard is
served by ``replication_factor`` replica servers (rotating placement),
requests that are lost or hit a dead server burn a timeout and retry
on the next replica with exponential backoff, an explicit hedge delay
issues a duplicate request to another replica (first answer wins), and
a shard whose replicas are all unreachable past the deadline completes
*degraded* — the hop proceeds without its keys rather than hanging the
batch. Without a retry policy the fault machinery is fully bypassed
and runs are bit-for-bit identical to the historical behavior.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.axe.events import Simulator
from repro.memstore.retry import RetryPolicy
from repro.units import US


@dataclass(frozen=True)
class ServiceConfig:
    """Deployment and workload parameters."""

    num_servers: int = 4
    num_workers: int = 8
    vcpus_per_server: int = 8
    #: Server-side software time per requested key.
    per_key_service_s: float = 3.0 * US
    #: Fixed RPC round-trip network latency (excluding queueing).
    rpc_latency_s: float = 25.0 * US
    #: Per-server NIC bandwidth for responses.
    network_bandwidth: float = 1.5e9
    batch_size: int = 64
    fanouts: Tuple[int, ...] = (10, 10)
    attr_bytes: int = 512
    #: Batches each worker runs (closed loop).
    batches_per_worker: int = 4
    #: Replica servers per shard; shard ``s`` is served by servers
    #: ``(s + r) % num_servers``. 1 means no redundancy.
    replication_factor: int = 1
    #: Worker-side timeout/backoff/hedging policy; ``None`` disables
    #: the fault path entirely (historical behavior, bit-for-bit).
    #: Note the memstore defaults are tuned for fine-grained reads —
    #: batched RPCs here want ``attempt_timeout_s`` well above the
    #: batch service time, and hedging needs an explicit
    #: ``hedge_delay_s`` (there is no latency window to derive p99
    #: from in this model).
    retry: Optional[RetryPolicy] = None
    #: Per-request loss probability (drawn from the run's seeded rng).
    request_loss_rate: float = 0.0
    #: ``(server_index, time_s)`` kill events.
    kill_server_at: Tuple[Tuple[int, float], ...] = ()
    #: Open-loop graph mutations per second offered alongside the read
    #: workload (Poisson arrivals, uniform target server). Each
    #: mutation occupies one vCPU on its server like a read RPC does,
    #: so sampling latency degrades with write pressure. ``0.0``
    #: (default) is bit-for-bit the historical read-only run.
    mutation_rps: float = 0.0
    #: Server-side service time of one mutation (append + index touch).
    per_mutation_service_s: float = 6.0 * US

    def __post_init__(self) -> None:
        if min(self.num_servers, self.num_workers, self.vcpus_per_server) <= 0:
            raise ConfigurationError("servers, workers, vcpus must be positive")
        if min(self.per_key_service_s, self.rpc_latency_s) <= 0:
            raise ConfigurationError("latencies must be positive")
        if self.network_bandwidth <= 0 or self.attr_bytes <= 0:
            raise ConfigurationError("bandwidth and attr_bytes must be positive")
        if self.batch_size <= 0 or not self.fanouts:
            raise ConfigurationError("batch_size and fanouts must be set")
        if self.batches_per_worker <= 0:
            raise ConfigurationError("batches_per_worker must be positive")
        if not 1 <= self.replication_factor <= self.num_servers:
            raise ConfigurationError(
                f"replication_factor must be in [1, num_servers], "
                f"got {self.replication_factor}"
            )
        if not 0 <= self.request_loss_rate < 1:
            raise ConfigurationError(
                f"request_loss_rate must be in [0, 1), got {self.request_loss_rate}"
            )
        for server, at_s in self.kill_server_at:
            if not 0 <= server < self.num_servers:
                raise ConfigurationError(
                    f"fault event references server {server} outside "
                    f"[0, {self.num_servers})"
                )
            if at_s < 0:
                raise ConfigurationError(
                    f"fault event time must be non-negative, got {at_s}"
                )
        if self.mutation_rps < 0:
            raise ConfigurationError(
                f"mutation_rps must be non-negative, got {self.mutation_rps}"
            )
        if self.per_mutation_service_s <= 0:
            raise ConfigurationError(
                f"per_mutation_service_s must be positive, "
                f"got {self.per_mutation_service_s}"
            )
        if self.retry is None and (
            self.request_loss_rate > 0 or self.kill_server_at
        ):
            raise ConfigurationError(
                "fault injection (loss or server kills) requires a retry "
                "policy, or the closed loop would hang on lost replies"
            )


class _ServerSim:
    """One graph server: a vCPU pool draining a request queue."""

    def __init__(self, sim: Simulator, config: ServiceConfig, index: int) -> None:
        self.sim = sim
        self.config = config
        self.index = index
        self._queue: Deque[Tuple[int, Callable[[], None], bool]] = deque()
        self._idle_vcpus = config.vcpus_per_server
        self._nic_free_at = 0.0
        self.keys_served = 0
        self.mutations_served = 0
        self.max_queue_depth = 0
        self.alive = True
        #: Bumped on kill; work in flight at the time is dropped when
        #: it completes instead of replying from a dead server.
        self._epoch = 0

    def kill(self) -> None:
        if not self.alive:
            return
        self.alive = False
        self._epoch += 1
        self._queue.clear()

    def request(self, num_keys: int, reply: Callable[[], None]) -> None:
        """Handle a batched key-fetch RPC; ``reply`` fires at the
        client once service + response transfer complete. A dead server
        drops the request on the floor (the client's timeout owns
        recovery)."""
        if not self.alive:
            return
        self._queue.append((num_keys, reply, False))
        self.max_queue_depth = max(self.max_queue_depth, len(self._queue))
        self._dispatch()

    def mutate(self, done: Callable[[], None]) -> None:
        """Handle one graph-mutation RPC (append + index touch).

        Competes for the same vCPU pool as reads — that contention is
        exactly what ``mutation_rps`` sweeps measure — but its ack
        carries no attribute payload, so it skips the NIC transfer.
        """
        if not self.alive:
            return
        self._queue.append((0, done, True))
        self.max_queue_depth = max(self.max_queue_depth, len(self._queue))
        self._dispatch()

    def _dispatch(self) -> None:
        while self._idle_vcpus > 0 and self._queue:
            num_keys, reply, is_mutation = self._queue.popleft()
            self._idle_vcpus -= 1
            if is_mutation:
                service = self.config.per_mutation_service_s
                self.mutations_served += 1
            else:
                service = num_keys * self.config.per_key_service_s
                self.keys_served += num_keys

            def done(
                n=num_keys, cb=reply, epoch=self._epoch, mut=is_mutation
            ) -> None:
                if epoch != self._epoch:
                    return  # the server died mid-service
                self._idle_vcpus += 1
                if mut:
                    # Tiny ack: no NIC serialization, just the return trip.
                    self.sim.at(self.sim.now + self.config.rpc_latency_s / 2, cb)
                    self._dispatch()
                    return
                # Response serializes on this server's NIC.
                response_bytes = n * self.config.attr_bytes
                transfer = response_bytes / self.config.network_bandwidth
                start = max(self.sim.now, self._nic_free_at)
                self._nic_free_at = start + transfer
                self.sim.at(
                    self._nic_free_at + self.config.rpc_latency_s / 2, cb
                )
                self._dispatch()

            self.sim.after(service, done)


@dataclass
class ServiceReport:
    """Latency/throughput results of one service simulation."""

    batch_latencies_s: List[float]
    total_time_s: float
    total_batches: int
    server_max_queue: int
    #: Shard RPC retries issued after a timeout.
    retries: int = 0
    #: Per-attempt timeouts that fired without an answer.
    timeouts: int = 0
    #: Hedged duplicate requests issued.
    hedges: int = 0
    #: Hedges whose reply arrived first (loser cancelled).
    hedge_wins: int = 0
    #: Shard fetches that completed without data (all replicas dead or
    #: deadline exhausted) — degraded completion, not a hang.
    degraded_shards: int = 0
    #: Graph mutations acknowledged by servers (``mutation_rps`` runs).
    mutations_applied: int = 0

    @property
    def throughput_batches_per_s(self) -> float:
        if self.total_time_s <= 0:
            return 0.0
        return self.total_batches / self.total_time_s

    def percentile(self, q: float) -> float:
        """Latency percentile; NaN when no batches completed."""
        if not 0 <= q <= 100:
            raise ConfigurationError(
                f"percentile must be in [0, 100], got {q}"
            )
        if not self.batch_latencies_s:
            return float("nan")
        return float(np.percentile(self.batch_latencies_s, q))

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    def deadline_miss_rate(self, deadline_s: float) -> float:
        """Fraction of batches exceeding an inference deadline.

        NaN when no batches completed (a miss *rate* over zero
        requests is undefined, not zero).
        """
        if deadline_s <= 0:
            raise ConfigurationError(f"deadline must be positive, got {deadline_s}")
        if not self.batch_latencies_s:
            return float("nan")
        misses = sum(1 for lat in self.batch_latencies_s if lat > deadline_s)
        return misses / len(self.batch_latencies_s)


class _FaultCounters:
    """Mutable retry/hedge accounting for one run."""

    def __init__(self) -> None:
        self.retries = 0
        self.timeouts = 0
        self.hedges = 0
        self.hedge_wins = 0
        self.degraded_shards = 0


def run_service(config: Optional[ServiceConfig] = None, seed: int = 0) -> ServiceReport:
    """Run the closed-loop service simulation; returns latency stats."""
    config = config or ServiceConfig()
    sim = Simulator()
    rng = np.random.default_rng(seed)
    servers = [_ServerSim(sim, config, i) for i in range(config.num_servers)]
    latencies: List[float] = []
    counters = _FaultCounters()
    #: Time of the last batch completion — stray timeout no-ops and a
    #: trailing mutation tick may outlive the read workload, so
    #: ``sim.now`` at drain overstates it.
    last_done = [0.0]

    for server_index, at_s in config.kill_server_at:
        sim.at(at_s, lambda s=server_index: servers[s].kill())

    def send_plain(shard: int, keys: int, on_done: Callable[[], None]) -> None:
        # Request travels half the RTT before hitting the server.
        sim.after(
            config.rpc_latency_s / 2,
            lambda s=shard, k=keys: servers[s].request(k, on_done),
        )

    def send_reliable(shard: int, keys: int, on_done: Callable[[], None]) -> None:
        policy = config.retry
        replicas = [
            (shard + r) % config.num_servers
            for r in range(config.replication_factor)
        ]
        deadline = sim.now + policy.deadline_s
        state = {"done": False}

        def finish(degraded: bool, from_hedge: bool) -> None:
            if state["done"]:
                return  # hedge loser / late reply — cancelled
            state["done"] = True
            if from_hedge:
                counters.hedge_wins += 1
            if degraded:
                counters.degraded_shards += 1
            last_done[0] = max(last_done[0], sim.now)
            on_done()

        def issue(ordinal: int, attempt: int, is_hedge: bool) -> None:
            if state["done"]:
                return
            server = servers[replicas[ordinal % len(replicas)]]
            lost = (
                config.request_loss_rate > 0
                and rng.random() < config.request_loss_rate
            )
            if not lost:
                sim.after(
                    config.rpc_latency_s / 2,
                    lambda srv=server: srv.request(
                        keys, lambda: finish(degraded=False, from_hedge=is_hedge)
                    ),
                )
            if is_hedge:
                return  # hedges don't own the retry chain
            if (
                policy.hedge
                and policy.hedge_delay_s is not None
                and len(replicas) > 1
            ):
                def maybe_hedge(o=ordinal, a=attempt) -> None:
                    if state["done"]:
                        return
                    counters.hedges += 1
                    issue(o + 1, a, is_hedge=True)

                if sim.now + policy.hedge_delay_s < deadline:
                    sim.after(policy.hedge_delay_s, maybe_hedge)

            def on_timeout(o=ordinal, a=attempt) -> None:
                if state["done"]:
                    return
                counters.timeouts += 1
                next_attempt = a + 1
                backoff = policy.backoff_s(a)
                if (
                    next_attempt >= policy.max_attempts
                    or sim.now + backoff >= deadline
                ):
                    finish(degraded=True, from_hedge=False)
                    return
                counters.retries += 1
                sim.after(
                    backoff,
                    lambda: issue(next_attempt, next_attempt, is_hedge=False),
                )

            sim.after(policy.attempt_timeout_s, on_timeout)

        issue(0, 0, is_hedge=False)

    send_shard = send_plain if config.retry is None else send_reliable

    def start_batch(worker: int, remaining: int) -> None:
        start_time = sim.now
        hop_keys = [config.batch_size]
        width = config.batch_size
        for fanout in config.fanouts:
            width *= fanout
            hop_keys.append(width)

        def run_hop(index: int) -> None:
            if index == len(hop_keys):
                latencies.append(sim.now - start_time)
                last_done[0] = max(last_done[0], sim.now)
                if remaining > 1:
                    start_batch(worker, remaining - 1)
                return
            keys = hop_keys[index]
            # Split keys across servers (hash partitioning): roughly
            # equal shards with multinomial jitter.
            shares = rng.multinomial(
                keys, np.full(config.num_servers, 1.0 / config.num_servers)
            )
            pending = [int(np.count_nonzero(shares))]
            if pending[0] == 0:
                sim.after(0.0, lambda: run_hop(index + 1))
                return

            def one_reply() -> None:
                pending[0] -= 1
                if pending[0] == 0:
                    run_hop(index + 1)

            for server_index, share in enumerate(shares):
                if share == 0:
                    continue
                send_shard(server_index, int(share), one_reply)

        run_hop(0)

    total_expected = config.num_workers * config.batches_per_worker
    mutations_done = [0]
    if config.mutation_rps > 0:
        # Dedicated stream: the read path's draws (multinomial splits,
        # loss coin-flips) stay untouched by the write workload, and a
        # mutation_rps=0 run schedules nothing here at all — bit-for-bit
        # the historical read-only behavior.
        mut_rng = np.random.default_rng(seed + 1)

        def mutation_ack() -> None:
            mutations_done[0] += 1

        def mutation_tick() -> None:
            if len(latencies) >= total_expected:
                return  # read workload drained; stop offering writes
            server = servers[int(mut_rng.integers(0, config.num_servers))]
            sim.after(
                config.rpc_latency_s / 2, lambda s=server: s.mutate(mutation_ack)
            )
            sim.after(
                float(mut_rng.exponential(1.0 / config.mutation_rps)),
                mutation_tick,
            )

        sim.after(
            float(mut_rng.exponential(1.0 / config.mutation_rps)), mutation_tick
        )

    for worker in range(config.num_workers):
        # Stagger worker starts to avoid an artificial convoy.
        sim.at(worker * US, lambda w=worker: start_batch(w, config.batches_per_worker))
    sim.run()
    return ServiceReport(
        batch_latencies_s=latencies,
        total_time_s=last_done[0],
        total_batches=len(latencies),
        server_max_queue=max(s.max_queue_depth for s in servers),
        retries=counters.retries,
        timeouts=counters.timeouts,
        hedges=counters.hedges,
        hedge_wins=counters.hedge_wins,
        degraded_shards=counters.degraded_shards,
        mutations_applied=mutations_done[0],
    )
