"""Tests for the fault-tolerant remote-memory path.

Covers replica placement, retry-policy validation and backoff math,
the reliable read loop (timeouts, retries, hedging, failover, deadline
exhaustion), fault injection on the virtual clock, determinism, the
store/sampler integration, and the fault-aware Equation-3 sizing.
"""

import math

import numpy as np
import pytest

from repro.errors import (
    ConfigurationError,
    PartitionError,
    ReplicaUnavailableError,
)
from repro.framework.requests import SampleRequest
from repro.framework.sampler import MultiHopSampler
from repro.graph.generators import power_law_graph
from repro.graph.partition import HashPartitioner
from repro.memstore import (
    FaultInjector,
    FaultStats,
    PartitionedStore,
    ReliableReadPath,
    ReplicaPlacement,
    RetryPolicy,
    expected_attempts,
    outstanding_for_link,
    outstanding_with_faults,
)
from repro.memstore.links import get_link
from repro.serving.metrics import MetricsRegistry


# --------------------------------------------------------------- placement
class TestReplicaPlacement:
    def test_rotating_chain_domains(self):
        placement = ReplicaPlacement(num_partitions=4, replication_factor=2)
        for p in range(4):
            replicas = placement.replicas_of(p)
            assert [r.replica for r in replicas] == [0, 1]
            assert [r.domain for r in replicas] == [p, (p + 1) % 4]

    def test_replicas_occupy_distinct_domains(self):
        placement = ReplicaPlacement(
            num_partitions=6, replication_factor=3, num_domains=5
        )
        for p in range(6):
            domains = [r.domain for r in placement.replicas_of(p)]
            assert len(set(domains)) == 3

    def test_primary_is_replica_zero(self):
        placement = ReplicaPlacement(num_partitions=3)
        primary = placement.primary_of(2)
        assert primary.replica == 0 and primary.partition == 2

    def test_replicas_in_domain(self):
        placement = ReplicaPlacement(num_partitions=4, replication_factor=2)
        hosted = placement.replicas_in_domain(1)
        # Domain 1 hosts partition 1's primary and partition 0's copy.
        assert {(r.partition, r.replica) for r in hosted} == {(1, 0), (0, 1)}

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ReplicaPlacement(num_partitions=0)
        with pytest.raises(ConfigurationError):
            ReplicaPlacement(num_partitions=2, replication_factor=0)
        with pytest.raises(ConfigurationError):
            ReplicaPlacement(
                num_partitions=2, replication_factor=3, num_domains=2
            )
        with pytest.raises(PartitionError):
            ReplicaPlacement(num_partitions=2).replicas_of(2)
        with pytest.raises(ConfigurationError):
            ReplicaPlacement(num_partitions=2).replicas_in_domain(9)


# ------------------------------------------------------------------ policy
class TestRetryPolicy:
    def test_backoff_sequence_doubles_then_caps(self):
        policy = RetryPolicy(
            backoff_base_s=10e-6, backoff_multiplier=2.0, backoff_max_s=35e-6
        )
        assert policy.backoff_s(0) == pytest.approx(10e-6)
        assert policy.backoff_s(1) == pytest.approx(20e-6)
        assert policy.backoff_s(2) == pytest.approx(35e-6)  # capped
        assert policy.backoff_s(5) == pytest.approx(35e-6)

    def test_backoff_rejects_negative_index(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy().backoff_s(-1)

    def test_validation(self):
        for bad in (
            dict(attempt_timeout_s=0),
            dict(deadline_s=-1),
            dict(max_attempts=0),
            dict(backoff_base_s=-1e-6),
            dict(backoff_multiplier=0.5),
            dict(hedge_quantile=0),
            dict(hedge_quantile=101),
            dict(hedge_min_samples=0),
            dict(hedge_delay_s=0),
        ):
            with pytest.raises(ConfigurationError):
                RetryPolicy(**bad)

    def test_expected_attempts(self):
        assert expected_attempts(0.0, 5) == 1.0
        # sum of 0.5^i for i in 0..2
        assert expected_attempts(0.5, 3) == pytest.approx(1.75)
        with pytest.raises(ConfigurationError):
            expected_attempts(1.0, 5)
        with pytest.raises(ConfigurationError):
            expected_attempts(0.1, 0)


# ----------------------------------------------------------- fault injector
class TestFaultInjector:
    def test_kill_and_restore_immediate(self):
        placement = ReplicaPlacement(num_partitions=2)
        injector = FaultInjector()
        replica = placement.primary_of(0)
        assert not injector.is_down(replica)
        injector.kill_replica(0, 0)
        assert injector.is_down(replica)
        injector.restore_replica(0, 0)
        assert not injector.is_down(replica)

    def test_scheduled_kill_applies_at_virtual_time(self):
        placement = ReplicaPlacement(num_partitions=2)
        injector = FaultInjector()
        replica = placement.primary_of(1)
        injector.kill_replica(1, 0, at_s=1e-3)
        assert not injector.is_down(replica)
        injector.advance_to(0.5e-3)
        assert not injector.is_down(replica)
        injector.advance_to(2e-3)
        assert injector.is_down(replica)

    def test_zero_loss_never_loses(self):
        injector = FaultInjector(seed=0, loss_rate=0.0)
        assert not any(injector.request_lost() for _ in range(100))

    def test_loss_rate_validation(self):
        with pytest.raises(ConfigurationError):
            FaultInjector(loss_rate=1.0)

    def test_degrade_link_validation(self):
        with pytest.raises(ConfigurationError):
            FaultInjector().degrade_link(0.0)


# -------------------------------------------------------------- fault stats
class TestFaultStats:
    def test_minus_gives_window_delta(self):
        stats = FaultStats(reads=10, retries=3, busy_s=1.0)
        baseline = stats.copy()
        stats.reads += 5
        stats.retries += 1
        delta = stats.minus(baseline)
        assert delta.reads == 5 and delta.retries == 1
        assert delta.busy_s == pytest.approx(0.0)

    def test_any_faults(self):
        assert not FaultStats(reads=100, attempts=100).any_faults
        assert FaultStats(retries=1).any_faults
        assert FaultStats(hedges=1).any_faults


# ----------------------------------------------------------- reliable reads
def make_path(**kwargs):
    placement = kwargs.pop(
        "placement", ReplicaPlacement(num_partitions=4, replication_factor=2)
    )
    injector = kwargs.pop("injector", None) or FaultInjector(seed=0)
    policy = kwargs.pop("policy", None) or RetryPolicy()
    path = ReliableReadPath(
        placement, policy=policy, injector=injector, seed=0, **kwargs
    )
    return path, injector


class TestReliableReadPath:
    def test_clean_read_no_fault_events(self):
        path, _ = make_path(policy=RetryPolicy(hedge=False))
        for _ in range(50):
            latency = path.read(0, 64)
            assert latency > 0
        stats = path.stats
        assert stats.reads == 50 and stats.attempts == 50
        assert not stats.any_faults

    def test_timeout_fires_on_dead_primary(self):
        policy = RetryPolicy(hedge=False)
        path, injector = make_path(policy=policy)
        injector.kill_replica(0, replica=0)
        before = injector.now
        path.read(0, 64)
        stats = path.stats
        assert stats.timeouts == 1
        assert stats.retries == 1
        assert stats.failovers == 1  # served by replica 1
        # The read burned the full attempt timeout plus the backoff.
        assert injector.now - before >= policy.attempt_timeout_s

    def test_backoff_consumes_virtual_time(self):
        policy = RetryPolicy(hedge=False)
        path, injector = make_path(policy=policy, jitter_sigma=0.0)
        injector.kill_replica(0, replica=0)
        before = injector.now
        latency = path.read(0, 64)
        # timeout + backoff(0) + successful attempt on the replica
        floor = policy.attempt_timeout_s + policy.backoff_s(0)
        assert latency >= floor
        assert injector.now - before == pytest.approx(latency)

    def test_hedge_cancels_loser(self):
        """A dead primary never answers; the hedge to the other replica
        wins every read, with no retry chain needed."""
        policy = RetryPolicy(hedge=True, hedge_delay_s=20e-6)
        path, injector = make_path(policy=policy, jitter_sigma=0.0)
        injector.kill_replica(2, replica=0)
        for _ in range(10):
            latency = path.read(2, 64)
            # The winning response is the hedge: trigger delay + one
            # wire latency; the primary's (never-arriving) response is
            # dropped, not waited for.
            assert latency >= policy.hedge_delay_s
            assert latency < policy.attempt_timeout_s
        stats = path.stats
        assert stats.hedges == 10
        assert stats.hedge_wins == 10
        assert stats.failovers == 10
        assert stats.retries == 0 and stats.timeouts == 0

    def test_hedge_not_issued_when_primary_fast(self):
        # With zero jitter the primary always beats a long hedge delay.
        policy = RetryPolicy(hedge=True, hedge_delay_s=90e-6)
        path, _ = make_path(policy=policy, jitter_sigma=0.0)
        for _ in range(20):
            path.read(0, 64)
        assert path.stats.hedges == 0

    def test_all_replicas_dead_raises_within_deadline(self):
        policy = RetryPolicy(hedge=False, deadline_s=1e-3)
        path, injector = make_path(policy=policy)
        injector.kill_replica(1, replica=0)
        injector.kill_replica(1, replica=1)
        before = injector.now
        with pytest.raises(ReplicaUnavailableError):
            path.read(1, 64)
        assert path.stats.failed_reads == 1
        assert injector.now - before <= policy.deadline_s + 1e-12

    def test_loss_rate_triggers_retries(self):
        policy = RetryPolicy(hedge=False)
        injector = FaultInjector(seed=1, loss_rate=0.3)
        path, _ = make_path(policy=policy, injector=injector)
        for _ in range(100):
            path.read(0, 64)
        assert path.stats.retries > 0
        assert path.stats.failed_reads == 0  # retries recover

    def test_deterministic_across_runs(self):
        def one_run():
            injector = FaultInjector(seed=5, loss_rate=0.1)
            path, _ = make_path(injector=injector)
            injector.kill_replica(0, replica=0, at_s=1e-4)
            for _ in range(200):
                try:
                    path.read(0, 64)
                except ReplicaUnavailableError:
                    pass
            return path.stats
        a, b = one_run(), one_run()
        assert a == b

    def test_degraded_link_slows_reads(self):
        path_a, _ = make_path(policy=RetryPolicy(hedge=False), jitter_sigma=0.0)
        injector_b = FaultInjector()
        injector_b.degrade_link(4.0)
        path_b, _ = make_path(
            policy=RetryPolicy(hedge=False),
            injector=injector_b,
            jitter_sigma=0.0,
        )
        assert path_b.read(0, 64) == pytest.approx(4.0 * path_a.read(0, 64))

    def test_validation(self):
        placement = ReplicaPlacement(num_partitions=2)
        with pytest.raises(ConfigurationError):
            ReliableReadPath(placement, jitter_sigma=-0.1)
        with pytest.raises(ConfigurationError):
            ReliableReadPath(placement, latency_window=0)


class TestLinkDegraded:
    def test_degraded_derives_scaled_link(self):
        link = get_link("mof_fabric")
        slow = link.degraded(latency_factor=2.0, bandwidth_factor=0.5)
        assert slow.name.endswith(":degraded")
        assert slow.latency(64) == pytest.approx(2.0 * link.latency(64))

    def test_degraded_validation(self):
        link = get_link("mof_fabric")
        with pytest.raises(ConfigurationError):
            link.degraded(latency_factor=0.5)
        with pytest.raises(ConfigurationError):
            link.degraded(bandwidth_factor=0.0)


# ------------------------------------------------------- store integration
def make_store(reliability, num_partitions=4, num_nodes=200):
    graph = power_law_graph(
        num_nodes=num_nodes, avg_degree=6, attr_len=4, seed=0
    )
    return PartitionedStore(
        graph, HashPartitioner(num_partitions), reliability=reliability
    )


class TestStoreIntegration:
    def test_remote_reads_ride_reliable_path(self):
        path, _ = make_path()
        store = make_store(path)
        for node in range(50):
            store.get_neighbors(node, from_partition=0)
        assert path.stats.reads > 0

    def test_local_reads_bypass_reliable_path(self):
        path, _ = make_path()
        store = make_store(path)
        # from_partition=None treats every access as local.
        for node in range(50):
            store.get_neighbors(node, from_partition=None)
        store.get_attributes(np.arange(20, dtype=np.int64), None)
        assert path.stats.reads == 0

    def test_no_reliability_no_fault_stats(self):
        store = make_store(None)
        assert store.fault_stats is None

    def test_store_raises_when_shard_unreachable(self):
        path, injector = make_path(
            policy=RetryPolicy(hedge=False, deadline_s=1e-3)
        )
        store = make_store(path)
        injector.kill_replica(1, 0)
        injector.kill_replica(1, 1)
        owners = store.partitioner.partition_of(
            np.arange(store.graph.num_nodes, dtype=np.int64)
        )
        victim = int(np.flatnonzero(owners == 1)[0])
        with pytest.raises(ReplicaUnavailableError):
            store.get_neighbors(victim, from_partition=0)


class TestSamplerDegradedCompletion:
    def _sampler(self, degraded_ok):
        path, injector = make_path(
            policy=RetryPolicy(hedge=False, deadline_s=1e-3)
        )
        store = make_store(path)
        sampler = MultiHopSampler(
            store, seed=0, worker_partition=0, degraded_ok=degraded_ok
        )
        injector.kill_replica(1, 0)
        injector.kill_replica(1, 1)
        return sampler

    def test_strict_mode_propagates(self):
        sampler = self._sampler(degraded_ok=False)
        request = SampleRequest(
            roots=np.arange(32, dtype=np.int64), fanouts=(5, 3)
        )
        with pytest.raises(ReplicaUnavailableError):
            sampler.sample(request)

    def test_degraded_mode_completes(self):
        sampler = self._sampler(degraded_ok=True)
        request = SampleRequest(
            roots=np.arange(32, dtype=np.int64), fanouts=(5, 3)
        )
        result = sampler.sample(request)
        assert result.layers[-1].shape == (32, 15)
        assert sampler.degraded_fallbacks > 0
        assert result.attributes is not None

    def test_matches_baseline_when_replica_survives(self):
        graph = power_law_graph(
            num_nodes=200, avg_degree=6, attr_len=4, seed=0
        )
        request = SampleRequest(
            roots=np.arange(16, dtype=np.int64), fanouts=(4,)
        )
        baseline = MultiHopSampler(
            PartitionedStore(graph, HashPartitioner(4)),
            seed=3,
            worker_partition=0,
        ).sample(request)
        path, injector = make_path()
        injector.kill_replica(1, 0)  # replica 1 survives
        faulted = MultiHopSampler(
            PartitionedStore(graph, HashPartitioner(4), reliability=path),
            seed=3,
            worker_partition=0,
            degraded_ok=True,
        ).sample(request)
        for a, b in zip(baseline.layers, faulted.layers):
            assert np.array_equal(a, b)
        assert path.stats.failovers > 0


# --------------------------------------------------------- equation-3 sizing
class TestOutstandingWithFaults:
    MIX = {16: 0.5, 64: 0.5}

    def test_no_faults_no_amplification(self):
        link = get_link("mof_fabric")
        base = outstanding_for_link(link, self.MIX)
        assert outstanding_with_faults(
            link, self.MIX, RetryPolicy()
        ) == pytest.approx(base)

    def test_loss_and_hedging_amplify(self):
        link = get_link("mof_fabric")
        base = outstanding_for_link(link, self.MIX)
        sized = outstanding_with_faults(
            link, self.MIX, RetryPolicy(), loss_rate=0.2, hedge_rate=0.05
        )
        expected = (expected_attempts(0.2, 5) + 0.05) * base
        assert sized == pytest.approx(expected)

    def test_hedge_rate_validation(self):
        with pytest.raises(ConfigurationError):
            outstanding_with_faults(
                get_link("mof_fabric"), self.MIX, RetryPolicy(), hedge_rate=1.5
            )


# ------------------------------------------------------- serving counters
class TestServingStoreCounters:
    def test_registry_surfaces_store_faults(self):
        metrics = MetricsRegistry()
        metrics.on_store_faults(
            FaultStats(
                reads=100, retries=7, timeouts=7, hedges=3, hedge_wins=2,
                failovers=5, failed_reads=1,
            )
        )
        report = metrics.snapshot(duration_s=0.1, drain_s=0.1)
        assert report.store_reads == 100
        assert report.store_retries == 7
        assert report.store_hedges == 3
        assert report.store_hedge_wins == 2
        assert report.store_failovers == 5
        assert report.store_degraded_reads == 1
        assert "store path: 100 reads" in report.format()

    def test_default_report_has_zero_store_counters(self):
        report = MetricsRegistry().snapshot(duration_s=0.1, drain_s=0.1)
        assert report.store_reads == 0
        assert "store path" not in report.format()


# --------------------------------------------------------------- percentiles
class TestNanPercentiles:
    def test_tenant_report_empty_percentiles_nan(self):
        from repro.serving.metrics import TenantReport

        tenant = TenantReport(name="t", slo_s=1e-3)
        assert math.isnan(tenant.p50) and math.isnan(tenant.p99)
