"""Tests for repro.serving.gateway (admission, batching, failover)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.framework.sampler import MultiHopSampler
from repro.graph.generators import power_law_graph
from repro.graph.partition import HashPartitioner
from repro.memstore.store import PartitionedStore
from repro.serving.backends import (
    BackendResult,
    ServingBackend,
    SoftwareBackend,
)
from repro.serving.gateway import (
    GatewayConfig,
    ServingGateway,
    serve_closed_loop,
    serve_workload,
)
from repro.serving.workload import Arrival, TenantSpec, generate_arrivals


class FakeBackend(ServingBackend):
    """Deterministic fixed-service-time backend for gateway tests."""

    def __init__(self, name="fake", concurrency=1, service_s=1e-3):
        super().__init__(name=name, concurrency=concurrency)
        self.service_s = service_s
        self.calls = []

    def execute(self, roots, fanouts):
        self.calls.append((int(roots.size), tuple(fanouts)))
        return BackendResult(payload=None, service_s=self.service_s)


def tenant(name="a", rate=1000.0, slo=0.1):
    return TenantSpec(name=name, rate_rps=rate, slo_s=slo)


def arrival(t, name="a", num_roots=4, fanouts=(2, 2), slo=0.1, seq=0):
    rng = np.random.default_rng(seq)
    return Arrival(
        time_s=t,
        tenant=name,
        roots=rng.integers(0, 100, size=num_roots, dtype=np.int64),
        fanouts=fanouts,
        slo_s=slo,
        seq=seq,
    )


def config(**kwargs):
    defaults = dict(token_burst=64.0)
    defaults.update(kwargs)
    return GatewayConfig(**defaults)


class TestBatching:
    def test_coalesces_simultaneous_arrivals(self):
        backend = FakeBackend()
        gateway = ServingGateway([backend], [tenant()], config())
        arrivals = [arrival(0.0, seq=i) for i in range(6)]
        report = gateway.run(arrivals, duration_s=0.1)
        assert report.mean_batch_occupancy == 6.0
        assert report.completed == 6
        assert backend.calls == [(24, (2, 2))]

    def test_flush_on_root_budget(self):
        gateway = ServingGateway(
            [FakeBackend(concurrency=8)],
            [tenant()],
            config(batch_root_budget=16),
        )
        arrivals = [arrival(0.0, seq=i) for i in range(8)]
        report = gateway.run(arrivals, duration_s=0.1)
        assert report.batch_request_sizes == [4, 4]
        assert report.batch_root_sizes == [16, 16]

    def test_flush_on_request_cap(self):
        gateway = ServingGateway(
            [FakeBackend(concurrency=8)],
            [tenant()],
            config(batch_root_budget=10_000, max_batch_requests=2),
        )
        arrivals = [arrival(0.0, seq=i) for i in range(6)]
        report = gateway.run(arrivals, duration_s=0.1)
        assert report.batch_request_sizes == [2, 2, 2]

    def test_flush_on_max_wait(self):
        gateway = ServingGateway(
            [FakeBackend()], [tenant()], config(max_wait_s=5e-3)
        )
        report = gateway.run([arrival(0.0)], duration_s=0.1)
        assert report.completed == 1
        # Latency = max-wait flush + service time.
        assert report.p50 == pytest.approx(5e-3 + 1e-3)

    def test_groups_by_fanouts(self):
        backend = FakeBackend(concurrency=4)
        gateway = ServingGateway([backend], [tenant()], config())
        arrivals = [
            arrival(0.0, fanouts=(2, 2), seq=0),
            arrival(0.0, fanouts=(3,), seq=1),
            arrival(0.0, fanouts=(2, 2), seq=2),
        ]
        report = gateway.run(arrivals, duration_s=0.1)
        assert sorted(report.batch_request_sizes) == [1, 2]
        assert {fanouts for _n, fanouts in backend.calls} == {(2, 2), (3,)}

    def test_cross_tenant_coalescing(self):
        tenants = [tenant("a"), tenant("b")]
        gateway = ServingGateway([FakeBackend()], tenants, config())
        arrivals = [
            arrival(0.0, name="a", seq=0),
            arrival(0.0, name="b", seq=1),
        ]
        report = gateway.run(arrivals, duration_s=0.1)
        assert report.mean_batch_occupancy == 2.0
        assert report.tenants["a"].completed == 1
        assert report.tenants["b"].completed == 1


class TestScheduling:
    def test_edf_order_under_contention(self):
        """With the single slot busy, the tightest deadline runs next."""
        gateway = ServingGateway(
            [FakeBackend(service_s=10e-3)],
            [tenant("a"), tenant("b"), tenant("c")],
            config(max_batch_requests=1),
        )
        arrivals = [
            arrival(0.0, name="a", slo=0.100, seq=0),      # dispatches at 0
            arrival(1e-5, name="c", slo=0.050, seq=1),     # deadline 0.050
            arrival(2e-5, name="b", slo=0.010, seq=2),     # deadline 0.010
        ]
        report = gateway.run(arrivals, duration_s=0.1)
        # b (tighter SLO) overtakes c despite arriving later.
        assert report.tenants["b"].p50 < report.tenants["c"].p50

    def test_conservation(self):
        """offered = admitted + shed, and every admitted completes."""
        spec = TenantSpec(name="a", rate_rps=400.0, provisioned_rps=100.0)
        arrivals = generate_arrivals([spec], 0.5, num_nodes=100, seed=0)
        gateway = ServingGateway([FakeBackend(concurrency=2)], [spec])
        report = gateway.run(arrivals, duration_s=0.5)
        assert report.offered == len(arrivals)
        assert report.offered == report.admitted + report.shed
        assert report.completed == report.admitted


class TestBackpressure:
    def test_rate_limit_sheds_with_retry_after(self):
        spec = TenantSpec(name="a", rate_rps=400.0, provisioned_rps=100.0)
        arrivals = generate_arrivals([spec], 0.5, num_nodes=100, seed=0)
        gateway = ServingGateway([FakeBackend(concurrency=4)], [spec])
        report = gateway.run(arrivals, duration_s=0.5)
        assert report.shed > 0
        assert report.shed_by_reason.get("rate_limited", 0) > 0
        assert gateway.shed_responses
        for shed in gateway.shed_responses:
            assert shed.retry_after_s > 0
            assert shed.reason in ("rate_limited", "queue_full")
        # Admitted traffic still meets a sane latency bound.
        assert report.p99 < 0.05

    def test_queue_full_sheds(self):
        gateway = ServingGateway(
            [FakeBackend(service_s=50e-3)],
            [tenant()],
            config(queue_capacity=2, max_batch_requests=1),
        )
        arrivals = [arrival(i * 1e-5, seq=i) for i in range(10)]
        report = gateway.run(arrivals, duration_s=0.1)
        assert report.shed_by_reason.get("queue_full", 0) == 7
        assert report.admitted == 3
        assert report.completed == 3

    def test_overload_bounds_admitted_tail(self):
        """2x overload: non-zero shed, but admitted p99 stays put."""
        base = TenantSpec(name="a", rate_rps=200.0)
        over = base.overloaded(2.0)
        backend_args = dict(concurrency=2, service_s=2e-3)
        baseline = ServingGateway(
            [FakeBackend(**backend_args)], [base]
        ).run(generate_arrivals([base], 0.5, 100, seed=1), 0.5)
        overload = ServingGateway(
            [FakeBackend(**backend_args)], [over]
        ).run(generate_arrivals([over], 0.5, 100, seed=1), 0.5)
        assert baseline.shed_rate == 0.0 or baseline.shed_rate < 0.05
        assert overload.shed_rate > 0.1
        assert overload.p99 < 5 * baseline.p99 + 10e-3


class TestFailover:
    def test_in_flight_retried_on_software(self):
        hardware = FakeBackend(name="hw", service_s=100e-3)
        software = FakeBackend(name="sw", concurrency=2, service_s=1e-3)
        gateway = ServingGateway(
            [hardware, software],
            [tenant()],
            config(max_batch_requests=1),
        )
        gateway.inject_backend_failure("hw", at_s=10e-3)
        report = gateway.run([arrival(0.0)], duration_s=0.1)
        # The batch was in flight on hw at the failure, got retried,
        # and completed on sw — nothing admitted was dropped.
        assert report.retried == 1
        assert report.completed == 1
        assert report.p50 == pytest.approx(10e-3 + 1e-3)
        assert not hardware.healthy

    def test_no_hardware_dispatch_after_failure(self):
        hardware = FakeBackend(name="hw", service_s=1e-3)
        software = FakeBackend(name="sw", concurrency=2, service_s=1e-3)
        gateway = ServingGateway(
            [hardware, software], [tenant()], config(max_batch_requests=1)
        )
        gateway.inject_backend_failure("hw", at_s=5e-3)
        arrivals = [arrival(0.0, seq=0), arrival(20e-3, seq=1)]
        report = gateway.run(arrivals, duration_s=0.1)
        assert report.completed == 2
        assert len(hardware.calls) == 1      # only the pre-failure batch
        assert len(software.calls) == 1      # the post-failure batch
        assert report.backends["hw"].batches == 1
        assert report.backends["sw"].batches == 1

    def test_failure_with_nothing_in_flight_is_benign(self):
        hardware = FakeBackend(name="hw")
        software = FakeBackend(name="sw")
        gateway = ServingGateway([hardware, software], [tenant()], config())
        gateway.inject_backend_failure("hw", at_s=50e-3)
        report = gateway.run([arrival(0.0)], duration_s=0.1)
        assert report.retried == 0
        assert report.completed == 1


class TestDeterminism:
    def test_same_seed_same_report(self):
        spec = TenantSpec(name="a", rate_rps=300.0)

        def run_once():
            arrivals = generate_arrivals([spec], 0.3, 100, seed=5)
            gateway = ServingGateway([FakeBackend(concurrency=2)], [spec])
            return gateway.run(arrivals, duration_s=0.3)

        a, b = run_once(), run_once()
        assert a.latencies_s == b.latencies_s
        assert a.batch_request_sizes == b.batch_request_sizes
        assert a.shed == b.shed


class TestValidation:
    def test_gateway_needs_backends_and_tenants(self):
        with pytest.raises(ConfigurationError):
            ServingGateway([], [tenant()])
        with pytest.raises(ConfigurationError):
            ServingGateway([FakeBackend()], [])
        with pytest.raises(ConfigurationError):
            ServingGateway([FakeBackend(), FakeBackend()], [tenant()])

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            GatewayConfig(batch_root_budget=0)
        with pytest.raises(ConfigurationError):
            GatewayConfig(max_wait_s=0)
        with pytest.raises(ConfigurationError):
            GatewayConfig(queue_capacity=0)
        with pytest.raises(ConfigurationError):
            GatewayConfig(token_burst=0.5)
        with pytest.raises(ConfigurationError):
            GatewayConfig(token_rate_headroom=0)

    def test_fault_injection_validation(self):
        gateway = ServingGateway([FakeBackend()], [tenant()])
        with pytest.raises(ConfigurationError):
            gateway.inject_backend_failure("ghost", 0.1)
        with pytest.raises(ConfigurationError):
            gateway.inject_backend_failure("fake", -1.0)

    def test_run_validation(self):
        gateway = ServingGateway([FakeBackend()], [tenant()])
        with pytest.raises(ConfigurationError):
            gateway.run([], duration_s=0)


class TestServeWorkload:
    def test_end_to_end_helper(self):
        spec = TenantSpec(name="a", rate_rps=200.0)
        report = serve_workload(
            [FakeBackend(concurrency=2)],
            [spec],
            duration_s=0.2,
            num_nodes=100,
            seed=0,
        )
        assert report.completed == report.admitted > 0
        assert report.duration_s == 0.2

    def test_fault_schedule_passthrough(self):
        hw = FakeBackend(name="hw", service_s=30e-3)
        sw = FakeBackend(name="sw", concurrency=4)
        spec = TenantSpec(name="a", rate_rps=200.0)
        report = serve_workload(
            [hw, sw],
            [spec],
            duration_s=0.2,
            num_nodes=100,
            seed=0,
            fail_backend_at={"hw": 0.05},
        )
        assert not hw.healthy
        assert report.completed == report.admitted > 0


class TestClosedLoop:
    """serve_closed_loop: the Challenge-1 scenario on the one gateway."""

    NODES = 400

    @pytest.fixture(scope="class")
    def sampler(self):
        graph = power_law_graph(self.NODES, 6.0, seed=0)
        return MultiHopSampler(
            PartitionedStore(graph, HashPartitioner(2)), seed=0
        )

    def loop(self, sampler, workers, batches_per_worker=3, backend=(), **kwargs):
        software = SoftwareBackend(sampler, functional=False, **dict(backend))
        kwargs.setdefault("num_nodes", self.NODES)
        return serve_closed_loop(
            [software], workers, batches_per_worker, **kwargs
        )

    def test_all_batches_complete(self, sampler):
        report = self.loop(sampler, workers=4, batches_per_worker=3)
        assert report.offered == report.completed == 12
        assert len(report.latencies_s) == 12
        assert all(latency > 0 for latency in report.latencies_s)
        assert [t.completed for t in report.tenants.values()] == [3] * 4

    def test_deterministic(self, sampler):
        first = self.loop(sampler, workers=8, seed=3)
        again = self.loop(sampler, workers=8, seed=3)
        other = self.loop(sampler, workers=8, seed=4)
        assert first.latencies_s == again.latencies_s
        assert first.drain_s == again.drain_s
        assert first.max_queue_depth == again.max_queue_depth
        assert (other.offered, other.completed) == (24, 24)

    def test_p99_at_least_p50(self, sampler):
        report = self.loop(sampler, workers=8)
        assert report.p99 >= report.p50 > 0

    def test_contention_raises_latency(self, sampler):
        assert self.loop(sampler, 24).p99 > self.loop(sampler, 1).p99

    def test_more_concurrency_cuts_latency(self, sampler):
        few = self.loop(sampler, 12, backend={"concurrency": 2})
        many = self.loop(sampler, 12, backend={"concurrency": 8})
        assert many.p50 < few.p50

    def test_throughput_grows_with_workers_then_saturates(self, sampler):
        rates = [
            self.loop(sampler, workers, 2, seed=1).completed_qps
            for workers in (1, 4, 16, 64)
        ]
        assert rates[1] > rates[0]
        # Saturation: the last quadrupling gains less than the first.
        assert rates[3] / rates[2] < rates[1] / rates[0]

    def test_faster_service_cuts_latency(self, sampler):
        slow = self.loop(sampler, 8, backend={"per_key_s": 6e-6})
        fast = self.loop(sampler, 8, backend={"per_key_s": 1e-6})
        assert fast.p50 < slow.p50

    def test_miss_rate_falls_as_slo_loosens(self, sampler):
        report = self.loop(sampler, 16)
        tight = self.loop(sampler, 16, slo_s=0.5 * report.p50)
        loose = self.loop(sampler, 16, slo_s=2 * report.p99)
        assert tight.slo_miss_rate > loose.slo_miss_rate == 0.0

    def test_inference_deadline_story(self, sampler):
        """Challenge-1: a deadline a quiet system meets is missed under
        load (tier-1 twin of benchmarks/test_bench_supplemental.py)."""
        quiet = self.loop(sampler, workers=1, batches_per_worker=6)
        loaded = self.loop(
            sampler, workers=32, batches_per_worker=3, slo_s=1.2 * quiet.p99
        )
        assert quiet.slo_miss_rate == 0.0
        assert loaded.p99 > 2 * quiet.p99
        assert loaded.slo_miss_rate > 0.3

    def test_queue_depth_tracked(self, sampler):
        assert self.loop(sampler, 16).max_queue_depth >= 1

    def test_conservation_within_queue_capacity(self, sampler):
        report = self.loop(sampler, workers=16)
        assert report.shed == 0
        assert report.offered == report.completed + report.shed == 48

    def test_shed_workers_stop_and_run_conserves(self, sampler):
        report = self.loop(
            sampler, workers=16, config=GatewayConfig(queue_capacity=4)
        )
        assert report.shed > 0
        assert report.offered == report.completed + report.shed
        assert report.offered < 48

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(workers=0),
            dict(workers=2, batches_per_worker=0),
            dict(workers=2, batch_size=0),
            dict(workers=2, fanouts=()),
            dict(workers=2, num_nodes=0),
            dict(workers=2, slo_s=0),
        ],
    )
    def test_argument_validation(self, sampler, kwargs):
        with pytest.raises(ConfigurationError):
            self.loop(sampler, **kwargs)


class TestClusterHooks:
    """attach()/load()/drain/halt/evacuate — the cluster-facing surface."""

    def attached(self, backend=None, admission=True, **cfg):
        from repro.axe.events import Simulator

        backend = backend or FakeBackend(service_s=10e-3)
        gateway = ServingGateway([backend], [tenant()], config(**cfg))
        sim = Simulator()
        gateway.attach(sim, admission=admission)
        return gateway, sim

    def test_load_reports_queue_and_in_flight(self):
        gateway, sim = self.attached(
            backend=FakeBackend(service_s=50e-3), max_wait_s=1e-3
        )
        for i in range(3):
            sim.at(0.0, lambda s=i: gateway.submit(arrival(0.0, seq=s)))
        sim.run(until=2e-3)
        load = gateway.load()
        # One coalesced batch of 12 roots dispatched; nothing queued.
        assert load.in_flight_batches == 1
        assert load.in_flight_roots == 12
        assert load.queue_depth == 0
        assert load.score == 12
        sim.run()
        after = gateway.load()
        assert after.in_flight_batches == 0
        assert after.score == 0

    def test_queue_depth_counts_undispatched(self):
        # Single slot busy for a long time: later arrivals stay queued.
        gateway, sim = self.attached(
            backend=FakeBackend(service_s=1.0), max_wait_s=1e-3
        )
        sim.at(0.0, lambda: gateway.submit(arrival(0.0, seq=0)))
        for i in range(4):
            sim.at(5e-3, lambda s=i: gateway.submit(arrival(5e-3, seq=10 + s)))
        sim.run(until=10e-3)
        assert gateway.load().queue_depth == 4

    def test_drain_finishes_admitted_and_sheds_new(self):
        gateway, sim = self.attached()
        sim.at(0.0, lambda: gateway.submit(arrival(0.0, seq=0)))
        sim.at(1e-3, gateway.begin_drain)
        sim.at(2e-3, lambda: gateway.submit(arrival(2e-3, seq=1)))
        sim.run()
        assert gateway.drained
        gateway.assert_drained()
        report = gateway.metrics.snapshot(duration_s=0.1, drain_s=sim.now)
        assert report.completed == 1
        assert [s.reason for s in gateway.shed_responses] == ["draining"]
        assert gateway.shed_responses[0].retry_after_s > 0

    def test_assert_drained_before_begin_drain_raises(self):
        from repro.errors import SimulationError

        gateway, _sim = self.attached()
        with pytest.raises(SimulationError):
            gateway.assert_drained()

    def test_assert_drained_with_work_outstanding_raises(self):
        from repro.errors import SimulationError

        gateway, sim = self.attached(backend=FakeBackend(service_s=1.0))
        sim.at(0.0, lambda: gateway.submit(arrival(0.0, seq=0)))
        sim.run(until=10e-3)
        gateway.begin_drain()
        with pytest.raises(SimulationError):
            gateway.assert_drained()

    def test_halt_invalidates_in_flight(self):
        backend = FakeBackend(service_s=20e-3)
        gateway, sim = self.attached(backend=backend, max_wait_s=1e-3)
        sim.at(0.0, lambda: gateway.submit(arrival(0.0, seq=0)))
        sim.at(5e-3, gateway.halt)
        sim.run()
        report = gateway.metrics.snapshot(duration_s=0.1, drain_s=sim.now)
        # The batch dispatched but its completion no longer counts.
        assert backend.calls
        assert report.completed == 0

    def test_submit_on_halted_gateway_raises(self):
        from repro.errors import SimulationError

        gateway, sim = self.attached()
        gateway.halt()
        with pytest.raises(SimulationError):
            gateway.submit(arrival(0.0, seq=0))
        with pytest.raises(SimulationError):
            gateway.submit_admitted(arrival(0.0, seq=1))

    def test_evacuate_collects_every_admitted_request(self):
        # Three strata: in-flight batch, scheduler backlog, unflushed group.
        gateway, sim = self.attached(
            backend=FakeBackend(service_s=1.0), max_wait_s=50e-3
        )
        flushed = [arrival(0.0, seq=i) for i in range(4)]  # flush + dispatch
        queued = [arrival(1e-3, seq=4 + i) for i in range(4)]  # flush, queued
        waiting = [arrival(2e-3, seq=8)]  # still coalescing
        for a in flushed + queued + waiting:
            sim.at(a.time_s, lambda x=a: gateway.submit(x))
        sim.run(until=3e-3)
        gateway.halt()
        orphans = gateway.evacuate()
        assert [o.seq for o in orphans] == list(range(9))
        assert gateway.drained
        assert gateway.load().score == 0

    def test_evacuated_requests_complete_elsewhere(self):
        dead_backend = FakeBackend(service_s=1.0)
        dead, sim = self.attached(backend=dead_backend)
        for i in range(3):
            sim.at(0.0, lambda s=i: dead.submit(arrival(0.0, seq=s)))
        sim.run(until=5e-3)
        dead.halt()
        orphans = dead.evacuate()
        survivor = ServingGateway(
            [FakeBackend(service_s=1e-3)], [tenant()], config()
        )
        survivor.attach(sim, admission=False)
        for o in orphans:
            survivor.submit_admitted(o)
        sim.run()
        report = survivor.metrics.snapshot(duration_s=0.1, drain_s=sim.now)
        assert report.completed == 3

    def test_submit_admitted_skips_admission_and_capacity(self):
        gateway, sim = self.attached(
            backend=FakeBackend(service_s=1.0),
            admission=False,
            queue_capacity=2,
        )
        for i in range(6):
            sim.at(0.0, lambda s=i: gateway.submit_admitted(arrival(0.0, seq=s)))
        sim.run(until=1e-3)
        assert gateway.shed_responses == []
        assert gateway.load().queue_depth + gateway.load().in_flight_batches > 0

    def test_submit_admitted_on_draining_gateway_raises(self):
        from repro.errors import SimulationError

        gateway, _sim = self.attached()
        gateway.begin_drain()
        with pytest.raises(SimulationError):
            gateway.submit_admitted(arrival(0.0, seq=0))

    def test_on_shed_observer_fires(self):
        gateway, sim = self.attached()
        seen = []
        gateway.on_shed = lambda arr, resp: seen.append((arr.seq, resp.reason))
        gateway.begin_drain()
        sim.at(1e-3, lambda: gateway.submit(arrival(1e-3, seq=7)))
        sim.run()
        assert seen == [(7, "draining")]
