"""Tests for repro.api (the Section 5 multi-level interface)."""

import numpy as np
import pytest

from repro.api import GnnSession
from repro.errors import ConfigurationError
from repro.graph.generators import power_law_graph


@pytest.fixture(scope="module")
def session():
    graph = power_law_graph(1500, 8.0, attr_len=8, seed=0)
    return GnnSession(graph, num_partitions=4, seed=0)


class TestAcceleratorLevel:
    def test_csr_roundtrip(self, session):
        session.set_csr(3, 1234)
        assert session.read_csr(3) == 1234

    def test_csr_independent_indices(self, session):
        session.set_csr(4, 1)
        session.set_csr(5, 2)
        assert session.read_csr(4) == 1
        assert session.read_csr(5) == 2


class TestGnnOperatorLevel:
    def test_software_sample(self, session):
        result = session.sample(np.arange(8), (5, 2))
        assert result.layers[2].shape == (8, 10)
        assert result.attributes is not None

    def test_hardware_sample(self, session):
        results, stats = session.sample_hw(np.arange(8), (5,))
        assert set(results) == set(range(8))
        assert stats.roots_per_second > 0

    def test_software_and_hardware_agree_on_shapes(self, session):
        sw = session.sample(np.arange(4), (6,), with_attributes=False)
        hw, _stats = session.sample_hw(np.arange(4), (6,))
        for index in range(4):
            assert sw.layers[1][index].size == hw[index][1].size

    def test_read_node_attributes(self, session):
        values = session.read_node_attributes(np.array([1, 2, 3]))
        assert np.allclose(values, session.graph.node_attr[[1, 2, 3]])

    def test_negative_sample(self, session):
        negatives = session.negative_sample(np.array([[0, 1]]), rate=4)
        assert negatives.shape == (1, 4)
        forbidden = set(session.graph.neighbors(0).tolist()) | {0}
        assert not (set(negatives[0].tolist()) & forbidden)


class TestFixedModelLevel:
    def test_graphsage_trains(self, session):
        trainer = session.graphsage(hidden_dim=8, fanouts=(4,), num_labels=3)
        rng = np.random.default_rng(0)
        roots = rng.integers(0, session.graph.num_nodes, 32)
        labels = rng.integers(0, 2, (32, 3))
        first = trainer.train_step(roots, labels)
        for _ in range(5):
            last = trainer.train_step(roots, labels)
        assert np.isfinite(first) and np.isfinite(last)

    def test_graphsage_needs_attributes(self):
        graph = power_law_graph(100, 3.0, attr_len=0, seed=0)
        session = GnnSession(graph, num_partitions=2)
        with pytest.raises(ConfigurationError):
            session.graphsage(hidden_dim=4, fanouts=(2,), num_labels=2)


class TestConfiguration:
    def test_streaming_method(self):
        graph = power_law_graph(300, 6.0, attr_len=4, seed=1)
        session = GnnSession(graph, sampling_method="streaming", seed=1)
        result = session.sample(np.arange(4), (5,), with_attributes=False)
        assert result.layers[1].shape == (4, 5)

    def test_unknown_method(self):
        graph = power_law_graph(100, 3.0, seed=0)
        with pytest.raises(ConfigurationError):
            GnnSession(graph, sampling_method="sorted")

    def test_cache_enabled(self):
        graph = power_law_graph(300, 6.0, attr_len=4, seed=1)
        session = GnnSession(graph, cache_nodes=500, seed=1)
        session.sample(np.arange(32), (5,))
        before = session.store.summary.total_count
        session.store.reset_trace()
        session.sample(np.arange(32), (5,))
        assert session.store.summary.total_count < before

    def test_negative_cache_rejected(self):
        graph = power_law_graph(100, 3.0, seed=0)
        with pytest.raises(ConfigurationError):
            GnnSession(graph, cache_nodes=-1)


class TestServingLevel:
    def small_tenants(self):
        from repro.serving import TenantSpec

        return [
            TenantSpec(name="a", rate_rps=120.0, roots_per_request=2,
                       fanouts=(3, 2), slo_s=30e-3),
            TenantSpec(name="b", rate_rps=80.0, roots_per_request=4,
                       fanouts=(3, 2), slo_s=50e-3),
        ]

    def test_serve_functional_end_to_end(self, session):
        report = session.serve(
            tenants=self.small_tenants(), duration_s=0.15
        )
        assert report.completed == report.admitted > 0
        assert report.mean_batch_occupancy >= 1.0
        assert report.p99 < 50e-3
        assert set(report.backends) == {"axe", "software"}

    def test_serve_default_tenants_timing_only(self, session):
        report = session.serve(duration_s=0.1, functional=False)
        assert set(report.tenants) == {"recsys", "fraud", "search"}
        assert report.completed > 0

    def test_serve_software_only(self, session):
        report = session.serve(
            tenants=self.small_tenants(),
            duration_s=0.1,
            functional=False,
            include_hardware=False,
        )
        assert set(report.backends) == {"software"}
        assert report.completed == report.admitted > 0

    def test_serve_hardware_failure_degrades(self, session):
        report = session.serve(
            tenants=self.small_tenants(),
            duration_s=0.15,
            functional=False,
            fail_hardware_at_s=0.05,
        )
        # No admitted request is lost across the failover.
        assert report.completed == report.admitted > 0
        assert report.backends["software"].batches > 0

    def test_serve_deterministic(self, session):
        kwargs = dict(
            tenants=self.small_tenants(), duration_s=0.1, functional=False
        )
        a = session.serve(**kwargs)
        b = session.serve(**kwargs)
        assert a.latencies_s == b.latencies_s

    def test_fail_hardware_requires_hardware(self, session):
        with pytest.raises(ConfigurationError):
            session.serve(
                duration_s=0.1,
                include_hardware=False,
                fail_hardware_at_s=0.05,
            )


class TestBatchedSession:
    def test_batched_session_samples(self):
        graph = power_law_graph(300, 6.0, attr_len=4, seed=1)
        session = GnnSession(graph, num_partitions=2)
        result = session.sample(np.array([1, 2, 3]), (4, 2))
        assert result.layers[2].shape == (3, 8)
        for hop in range(2):
            parents = result.layers[hop].reshape(-1)
            picks = result.layers[hop + 1].reshape(parents.size, -1)
            for i, parent in enumerate(parents):
                neighbors = graph.neighbors(int(parent))
                if neighbors.size == 0:
                    assert (picks[i] == parent).all()
                else:
                    assert np.isin(picks[i], neighbors).all()


class TestDynamicSession:
    @pytest.fixture()
    def dynamic_session(self):
        from repro.graph.dynamic import DynamicGraph

        graph = power_law_graph(800, 6.0, attr_len=8, seed=0)
        return GnnSession(DynamicGraph(graph), num_partitions=2, seed=0)

    def test_sample_over_dynamic_store(self, dynamic_session):
        result = dynamic_session.sample(np.arange(8), (4, 2))
        assert result.layers[2].shape == (8, 8)
        assert len(dynamic_session.store.last_sample_epochs) == 1

    def test_mutate_then_sample_sees_new_edges(self, dynamic_session):
        from repro.memstore.ingest import Mutation

        before = dynamic_session.store.view.num_edges
        applied = dynamic_session.mutate(
            [Mutation("edge", src=0, dst=1), Mutation("node", attach_to=0)]
        )
        assert applied == 2
        assert dynamic_session.store.view.num_edges == before + 2
        assert dynamic_session.store.view.num_nodes == 801

    def test_mutate_requires_dynamic(self, session):
        from repro.memstore.ingest import Mutation

        with pytest.raises(ConfigurationError):
            session.mutate([Mutation("edge", src=0, dst=1)])

    def test_serve_with_mutation_rate(self, dynamic_session):
        report = dynamic_session.serve(
            duration_s=0.2, functional=True, mutation_rate=200.0, seed=0
        )
        assert report.mutations_applied == 40
        assert report.completed > 0

    def test_serve_with_explicit_timeline(self, dynamic_session):
        from repro.memstore.ingest import Mutation

        timeline = [
            Mutation("edge", src=0, dst=1, time_s=0.05),
            Mutation("node", attach_to=2, time_s=0.1),
        ]
        report = dynamic_session.serve(
            duration_s=0.2, functional=True, mutations=timeline, seed=0
        )
        assert report.mutations_applied == 2
        assert dynamic_session.store.view.num_nodes == 801

    def test_serve_mutations_require_dynamic(self, session):
        with pytest.raises(ConfigurationError):
            session.serve(duration_s=0.1, mutation_rate=10.0)

    def test_serve_hardware_incompatible_with_dynamic(self, dynamic_session):
        with pytest.raises(ConfigurationError):
            dynamic_session.serve(duration_s=0.1, include_hardware=True)

    def test_serve_rate_zero_matches_static(self):
        """A dynamic session serving zero mutations reports the same
        outcome as a static session over the same CSR."""
        from repro.graph.dynamic import DynamicGraph

        graph = power_law_graph(800, 6.0, attr_len=8, seed=0)
        static = GnnSession(graph, num_partitions=2, seed=0)
        dynamic = GnnSession(DynamicGraph(graph), num_partitions=2, seed=0)
        rs = static.serve(
            duration_s=0.2, functional=True, include_hardware=False, seed=0
        )
        rd = dynamic.serve(duration_s=0.2, functional=True, seed=0)
        assert rs.completed == rd.completed
        assert rs.offered == rd.offered
        assert rd.mutations_applied == 0
