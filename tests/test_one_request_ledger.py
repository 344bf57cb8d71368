"""One request ledger per run, and the reports it feeds pinned bit-exact.

A cluster run records every offered, shed and completed request in one
:class:`~repro.serving.metrics.MetricsRegistry`, shared by every replica
gateway across restarts and evacuations; ``ClusterReport`` reads its
request totals and per-tenant rows off that registry's snapshot.

The digests below were taken from the two-ledger implementation this
one replaced, so they pin that the merge changed no reported bit:
``ClusterReport.to_json()`` under ``json.dumps(sort_keys=True)`` (floats
round-trip exactly through ``repr``), and every ``ServingReport`` field
with floats as ``float.hex``.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.api import GnnSession
from repro.cluster import ClusterConfig, ClusterSim, flash_crowd_day, run_cluster
from repro.graph.datasets import instantiate_dataset
from repro.graph.generators import power_law_graph
from repro.serving import SoftwareBackend, serve_closed_loop
from repro.serving.metrics import MetricsRegistry
from tests.test_cluster_sim import small_trace


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _exact(value):
    """``value`` as JSON-ready data, every float spelled by ``float.hex``."""
    if isinstance(value, float):
        return value.hex()
    if dataclasses.is_dataclass(value):
        return {
            f.name: _exact(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(key): _exact(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_exact(item) for item in value]
    return value


CLUSTER_PINS = {
    "static-kill": "9d3da1008d90c19051031fa16f5ca1aaeef51e2badf6c62c125b22d6a8408c31",
    "least-loaded-kill": "99dd7c0f60af6b8c751df09b6403bbb20163c83556b4ce67c8efa8ed005ca3e0",
    "cost-kill": "2080baeeec76e8f3224ae1de70b566d2392da268795e52223114af447d76226d",
    "only-replica-killed": "99a1534930e2fdad3aaafe0de89680da85a6d8632c03f5a7552eb06d21f72bd9",
    "consistent-hash": "7fcb52833af9f3f9f7277f0dfc6a4f9bcbd44033bbb2fec27b2c3a4c9baa1602",
}

CLUSTER_CONFIGS = {
    "static-kill": ClusterConfig(policy="static", kill_at_s=(0.7,)),
    "least-loaded-kill": ClusterConfig(
        policy="least-loaded", kill_at_s=(0.7,)
    ),
    "cost-kill": ClusterConfig(policy="cost", kill_at_s=(0.7,)),
    "only-replica-killed": ClusterConfig(
        policy="least-loaded", kill_at_s=(1.0,), tick_interval_s=10.0
    ),
    "consistent-hash": ClusterConfig(
        policy="static", router="consistent-hash"
    ),
}

SESSION_CLUSTER_PIN = (
    "7ae2dc9c42b3801daa76c578fa2258d0d06a83e5055ebce82e0fa6175ec19af9"
)
SERVICE_PINS = {
    "quiet": "0fe89c256f251e9c5d5bb5cea0e406c211f190c1076b1fec35e450bdd9767e89",
    "loaded": "9882c4b393d7ab5190f1c1d342e20adab04fea207e0f50a78e83064bc42b7990",
}
SERVE_FAILOVER_PIN = (
    "53cee88d27a7984f4d51398156a82bee44bf8f4b7106d066ecb478ea86e9e153"
)


@pytest.mark.parametrize("name", sorted(CLUSTER_PINS))
def test_cluster_report_is_pinned(name):
    report = run_cluster(small_trace(), CLUSTER_CONFIGS[name])
    assert _digest(report.to_json()) == CLUSTER_PINS[name]


def test_session_backed_cluster_report_is_pinned():
    """The ``TestSessionBacked`` run: replicas really sample a graph."""
    graph = instantiate_dataset("ls", max_nodes=2000, seed=0)
    session = GnnSession(graph, num_partitions=4, seed=0)
    report = session.serve_cluster(
        trace=flash_crowd_day(duration_s=1.0, users=60_000, seed=0),
        config=ClusterConfig(policy="static"),
    )
    assert _digest(report.to_json()) == SESSION_CLUSTER_PIN


def test_service_closed_loop_reports_are_pinned():
    """The two closed loops ``repro service`` prints."""
    graph = instantiate_dataset("ls", max_nodes=1500, seed=0)
    session = GnnSession(graph, num_partitions=4, seed=0)
    backends = [SoftwareBackend(session.sampler, functional=False)]
    quiet = serve_closed_loop(backends, 1, 6, num_nodes=graph.num_nodes)
    loaded = serve_closed_loop(
        backends, 32, 3, num_nodes=graph.num_nodes, slo_s=quiet.p99 * 1.2
    )
    assert _digest(_exact(quiet)) == SERVICE_PINS["quiet"]
    assert _digest(_exact(loaded)) == SERVICE_PINS["loaded"]


def test_serve_with_hardware_failover_is_pinned():
    graph = power_law_graph(1500, 8.0, attr_len=8, seed=0)
    session = GnnSession(graph, num_partitions=4, seed=0)
    report = session.serve(
        duration_s=0.1, include_hardware=True, fail_hardware_at_s=0.05
    )
    assert report.backends["software"].batches > 0
    assert _digest(_exact(report)) == SERVE_FAILOVER_PIN


def test_a_cluster_run_records_each_completion_once(monkeypatch):
    """One registry for the whole run, across a kill and a hot restart,
    and one ``on_completed`` per completed request."""
    built = []
    completions = []
    init = MetricsRegistry.__init__
    on_completed = MetricsRegistry.on_completed

    def spy_init(self):
        built.append(self)
        init(self)

    def spy_on_completed(self, tenant, latency_s):
        completions.append(tenant)
        on_completed(self, tenant, latency_s)

    monkeypatch.setattr(MetricsRegistry, "__init__", spy_init)
    monkeypatch.setattr(MetricsRegistry, "on_completed", spy_on_completed)
    report = run_cluster(
        small_trace(), ClusterConfig(policy="cost", kill_at_s=(0.7,))
    )
    assert report.replica_failures == 1
    assert report.replica_restarts == 1
    assert len(built) == 1
    assert len(completions) == report.completed > 0


def test_a_re_routed_request_is_admitted_once():
    """The headline static run with two kills evacuates admitted work;
    re-routing it to a survivor records its queue depth, not a second
    admission, so the ledger never admits more than was offered."""
    sim = ClusterSim(
        flash_crowd_day(duration_s=10, users=1_000_000, seed=0),
        config=ClusterConfig(policy="static", kill_at_s=(3.0, 6.5)),
    )
    sim.run()
    assert sim.metrics.evacuated_requests > 0
    ledger = sim.ledger.snapshot(duration_s=10.0, drain_s=sim.sim.now)
    assert ledger.admitted <= ledger.offered
    assert sum(t.admitted for t in ledger.tenants.values()) == ledger.admitted
    assert ledger.admitted + ledger.shed == ledger.offered
    assert ledger.completed == ledger.admitted
