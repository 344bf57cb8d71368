"""Tests for repro.graph.dynamic."""

from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, GraphError
from repro.graph.csr import CSRGraph
from repro.graph.dynamic import DynamicGraph, simulate_growth
from repro.graph.generators import power_law_graph


@pytest.fixture
def graph():
    base = CSRGraph.from_edges(4, [(0, 1), (0, 2), (1, 3)])
    return DynamicGraph(base)


class TestQueries:
    def test_initial_state(self, graph):
        assert graph.num_nodes == 4
        assert graph.num_edges == 3
        assert graph.delta_edges == 0

    def test_neighbors_base_only(self, graph):
        assert sorted(graph.neighbors(0).tolist()) == [1, 2]

    def test_degree_combines_base_and_delta(self, graph):
        graph.add_edge(0, 3)
        assert graph.degree(0) == 3
        assert graph.neighbors(0).tolist() == [1, 2, 3]

    def test_out_of_range(self, graph):
        with pytest.raises(GraphError):
            graph.neighbors(4)
        with pytest.raises(GraphError):
            graph.add_edge(0, 9)


class TestUpdates:
    def test_add_node(self, graph):
        new = graph.add_node()
        assert new == 4
        assert graph.num_nodes == 5
        assert graph.neighbors(new).size == 0

    def test_add_edge_to_new_node(self, graph):
        new = graph.add_node()
        graph.add_edge(2, new)
        assert graph.neighbors(2).tolist() == [new]

    def test_add_edges_bulk(self, graph):
        graph.add_edges([(0, 3), (3, 0), (3, 1)])
        assert graph.num_edges == 6
        assert graph.degree(3) == 2

    def test_delta_grows_and_compacts(self):
        base = CSRGraph.from_edges(3, [(0, 1)])
        graph = DynamicGraph(base, compact_threshold=5)
        for _ in range(5):
            graph.add_edge(1, 2)
        assert graph.compactions == 1
        assert graph.delta_edges == 0
        assert graph.degree(1) == 5

    def test_compaction_preserves_neighbors(self):
        base = power_law_graph(100, 4.0, seed=0)
        graph = DynamicGraph(base, compact_threshold=10_000)
        rng = np.random.default_rng(1)
        added = [(int(rng.integers(0, 100)), int(rng.integers(0, 100))) for _ in range(50)]
        graph.add_edges(added)
        before = {node: sorted(graph.neighbors(node).tolist()) for node in range(100)}
        graph.compact()
        after = {node: sorted(graph.neighbors(node).tolist()) for node in range(100)}
        assert before == after

    def test_snapshot_is_csr(self, graph):
        graph.add_edge(0, 3)
        snapshot = graph.snapshot()
        assert isinstance(snapshot, CSRGraph)
        assert snapshot.num_edges == 4
        assert graph.delta_edges == 0

    def test_snapshot_includes_new_nodes(self, graph):
        new = graph.add_node()
        graph.add_edge(new, 0)
        snapshot = graph.snapshot()
        assert snapshot.num_nodes == 5
        assert snapshot.neighbors(new).tolist() == [0]

    def test_version_increments(self, graph):
        assert graph.version == 0
        graph.add_edge(0, 3)
        graph.compact()
        assert graph.version == 1

    def test_compact_noop_when_clean(self, graph):
        graph.compact()
        assert graph.version == 0  # nothing to do

    def test_threshold_validation(self, graph):
        with pytest.raises(ConfigurationError):
            DynamicGraph(CSRGraph.from_edges(1, []), compact_threshold=0)


class TestEpochs:
    def test_epoch_bumps_on_every_mutation(self, graph):
        assert graph.epoch == 0
        graph.add_edge(0, 3)
        assert graph.epoch == 1
        graph.add_node()
        assert graph.epoch == 2
        graph.add_edges([(1, 2), (2, 0)])
        assert graph.epoch == 4

    def test_compact_bumps_version_not_epoch(self, graph):
        graph.add_edge(0, 3)
        epoch_before = graph.epoch
        graph.compact()
        assert graph.epoch == epoch_before  # same content, new layout
        assert graph.version == 1

    def test_auto_compaction_keeps_epoch_monotonic(self):
        graph = DynamicGraph(CSRGraph.from_edges(3, [(0, 1)]), compact_threshold=4)
        epochs = []
        for _ in range(10):
            graph.add_edge(1, 2)
            epochs.append(graph.epoch)
        assert epochs == sorted(epochs)
        assert epochs[-1] == 10
        assert graph.compactions == 2


class TestGraphView:
    def test_view_pins_epoch_across_mutation(self, graph):
        view = graph.view()
        graph.add_edge(0, 3)
        assert view.epoch == 0
        assert view.neighbors(0).tolist() == [1, 2]
        assert graph.neighbors(0).tolist() == [1, 2, 3]

    def test_view_pins_delta_prefix(self, graph):
        graph.add_edge(0, 3)
        view = graph.view()
        graph.add_edge(0, 0)
        assert view.neighbors(0).tolist() == [1, 2, 3]
        assert view.num_edges == 4

    def test_view_survives_compaction(self, graph):
        graph.add_edge(0, 3)
        view = graph.view()
        graph.compact()
        graph.add_edge(0, 0)
        assert view.neighbors(0).tolist() == [1, 2, 3]
        assert graph.neighbors(0).tolist() == [1, 2, 3, 0]

    def test_view_excludes_later_nodes(self, graph):
        view = graph.view()
        graph.add_node()
        assert view.num_nodes == 4
        with pytest.raises(GraphError):
            view.neighbors(4)

    def test_view_gather_matches_neighbors(self):
        base = power_law_graph(60, 4.0, seed=3)
        graph = DynamicGraph(base, compact_threshold=10_000)
        rng = np.random.default_rng(4)
        graph.add_edges(
            (int(rng.integers(0, 60)), int(rng.integers(0, 60)))
            for _ in range(40)
        )
        view = graph.view()
        nodes = list(range(60))
        values, offsets, base_deg, delta_deg = view.gather(nodes)
        for i, node in enumerate(nodes):
            block = values[offsets[i] : offsets[i + 1]]
            assert block.tolist() == view.neighbors(node).tolist()
            assert base_deg[i] + delta_deg[i] == block.size

    def test_view_attributes_cover_new_nodes(self):
        base = CSRGraph(
            np.array([0, 1, 1]),
            np.array([1]),
            node_attr=np.arange(4, dtype=np.float32).reshape(2, 2),
        )
        graph = DynamicGraph(base)
        graph.add_node(np.array([7.0, 8.0]))
        view = graph.view()
        rows = view.attributes([0, 2, 1])
        assert rows[1].tolist() == [7.0, 8.0]
        assert rows[0].tolist() == [0.0, 1.0]


class TestEdgeCases:
    def test_compaction_preserves_neighbor_order(self):
        """Base block first, then delta appends in insertion order."""
        base = CSRGraph.from_edges(5, [(0, 4), (0, 2)])
        graph = DynamicGraph(base, compact_threshold=10_000)
        base_block = graph.neighbors(0).tolist()
        graph.add_edges([(0, 3), (0, 1), (0, 3)])
        expected = base_block + [3, 1, 3]
        assert graph.neighbors(0).tolist() == expected
        graph.compact()
        assert graph.neighbors(0).tolist() == expected

    def test_node_only_growth_compacts(self, graph):
        graph.add_node()
        graph.add_node()
        graph.compact()  # no delta edges, but the base must grow
        assert graph.version == 1
        assert graph.base.num_nodes == 6
        assert graph.neighbors(5).size == 0

    def test_empty_base(self):
        graph = DynamicGraph(CSRGraph.from_edges(3, []))
        assert graph.num_edges == 0
        graph.add_edge(0, 2)
        assert graph.neighbors(0).tolist() == [2]
        snapshot = graph.snapshot()
        assert snapshot.num_edges == 1

    def test_auto_compaction_mid_add_edges(self):
        graph = DynamicGraph(CSRGraph.from_edges(4, []), compact_threshold=3)
        graph.add_edges([(0, 1), (0, 2), (0, 3), (1, 0), (1, 2)])
        assert graph.compactions == 1
        assert graph.delta_edges == 2
        assert graph.neighbors(0).tolist() == [1, 2, 3]
        assert graph.neighbors(1).tolist() == [0, 2]

    def test_compaction_preserves_node_attrs(self):
        base = CSRGraph(
            np.array([0, 1, 1]),
            np.array([1]),
            node_attr=np.ones((2, 3), dtype=np.float32),
        )
        graph = DynamicGraph(base)
        graph.add_node(np.full(3, 2.0))
        graph.add_edge(2, 0)
        merged = graph.snapshot()
        assert merged.node_attr.shape == (3, 3)
        assert merged.attributes([2])[0].tolist() == [2.0, 2.0, 2.0]

    def test_add_node_attr_validation(self):
        plain = DynamicGraph(CSRGraph.from_edges(2, []))
        with pytest.raises(ConfigurationError):
            plain.add_node(np.ones(3))
        attributed = DynamicGraph(
            CSRGraph(
                np.array([0, 0]),
                np.array([], dtype=np.int64),
                node_attr=np.ones((1, 2), dtype=np.float32),
            )
        )
        with pytest.raises(ConfigurationError):
            attributed.add_node(np.ones(5))


class TestGrowthSimulation:
    def test_growth_adds_edges_and_nodes(self):
        graph = DynamicGraph(CSRGraph.from_edges(10, [(0, 1)]))
        simulate_growth(graph, 500, new_node_probability=0.1, seed=0)
        assert graph.num_edges == 501
        assert graph.num_nodes > 10

    def test_growth_preferential(self):
        """Early nodes accumulate more in-edges (Zipf-biased trace)."""
        graph = DynamicGraph(CSRGraph.from_edges(50, []))
        simulate_growth(graph, 2000, new_node_probability=0.0, seed=1)
        snapshot = graph.snapshot()
        in_degrees = np.bincount(snapshot.indices, minlength=50)
        assert in_degrees[:5].sum() > in_degrees[-5:].sum()

    def test_sampling_over_snapshot(self):
        """The dynamic graph feeds the standard sampler via snapshot."""
        from repro.framework.requests import SampleRequest
        from repro.framework.sampler import MultiHopSampler
        from repro.graph.partition import HashPartitioner
        from repro.memstore.store import PartitionedStore

        graph = DynamicGraph(power_law_graph(200, 5.0, attr_len=0, seed=0))
        simulate_growth(graph, 300, new_node_probability=0.0, seed=2)
        snapshot = graph.snapshot()
        # Attach fresh attributes for the sampler's attribute path.
        snapshot = CSRGraph(
            snapshot.indptr,
            snapshot.indices,
            node_attr=np.zeros((snapshot.num_nodes, 4), dtype=np.float32),
        )
        store = PartitionedStore(snapshot, HashPartitioner(2))
        sampler = MultiHopSampler(store, seed=0)
        result = sampler.sample(
            SampleRequest(roots=np.arange(8), fanouts=(4,))
        )
        assert result.layers[1].shape == (8, 4)

    def test_growth_zipf_frequency(self):
        """Regression for the off-by-one: Zipf draws start at 1, so the
        most frequent draw must map to node 0 — not skip it entirely
        and pile onto node 1 (or worse, wrap num_nodes-1)."""
        num_nodes = 50
        graph = DynamicGraph(CSRGraph.from_edges(num_nodes, []))
        simulate_growth(graph, 5000, new_node_probability=0.0, seed=7)
        in_degrees = np.bincount(graph.snapshot().indices, minlength=num_nodes)
        # Node 0 receives the Zipf mass of draw==1 (~70% at a=1.8).
        assert in_degrees[0] == in_degrees.max()
        assert in_degrees[0] > 0.5 * in_degrees.sum()
        # Monotone-ish head: node 0 strictly dominates node 1, which
        # dominates the tail average.
        assert in_degrees[0] > in_degrees[1] > in_degrees[10:].mean()

    def test_growth_validation(self):
        graph = DynamicGraph(CSRGraph.from_edges(1, []))
        with pytest.raises(ConfigurationError):
            simulate_growth(graph, 10, new_node_probability=1.5)


def oracle_compact(base, delta, extra_attr, num_nodes):
    """The per-node merge loop ``DynamicGraph.compact`` was first written
    as, kept as the oracle: ``delta`` maps a node to its appended
    destinations in insertion order, ``extra_attr`` lists the rows of
    the nodes added since ``base``."""
    counts = np.zeros(num_nodes, dtype=np.int64)
    old_n = base.num_nodes
    counts[:old_n] = base.degrees()
    for node, extra in delta.items():
        counts[node] += len(extra)
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    indices = np.empty(int(indptr[-1]), dtype=np.int64)
    edge_attr = None
    if base.edge_attr is not None:
        edge_attr = np.ones(
            (int(indptr[-1]),) + base.edge_attr.shape[1:], dtype=np.float32
        )
    cursor = indptr[:-1].copy()
    for node in range(old_n):
        block = base.neighbors(node)
        if block.size:
            indices[cursor[node] : cursor[node] + block.size] = block
            if edge_attr is not None:
                lo = int(base.indptr[node])
                edge_attr[cursor[node] : cursor[node] + block.size] = (
                    base.edge_attr[lo : lo + block.size]
                )
            cursor[node] += block.size
    for node, extra in delta.items():
        block = np.asarray(extra, dtype=np.int64)
        indices[cursor[node] : cursor[node] + block.size] = block
        cursor[node] += block.size
    node_attr = base.node_attr
    if node_attr is not None and extra_attr:
        node_attr = np.concatenate([node_attr, np.stack(extra_attr)])
    return CSRGraph(indptr, indices, node_attr=node_attr, edge_attr=edge_attr)


class OracleGraph:
    """``DynamicGraph``'s contract on a dict-of-lists log, compacted by
    :func:`oracle_compact` at the same threshold."""

    def __init__(self, base, compact_threshold):
        self.base = base
        self.compact_threshold = compact_threshold
        self.num_nodes = base.num_nodes
        self.delta = defaultdict(list)
        self.extra_attr = []

    def add_node(self, attr_row):
        if self.base.attr_len:
            self.extra_attr.append(
                np.zeros(self.base.attr_len, dtype=np.float32)
                if attr_row is None
                else np.asarray(attr_row, dtype=np.float32)
            )
        self.num_nodes += 1

    def add_edge(self, src, dst):
        self.delta[src].append(dst)
        if sum(map(len, self.delta.values())) >= self.compact_threshold:
            self.compact()

    def compact(self):
        if self.delta or self.base.num_nodes != self.num_nodes:
            self.base = oracle_compact(
                self.base, self.delta, self.extra_attr, self.num_nodes
            )
            self.delta = defaultdict(list)
            self.extra_attr = []

    def blocks(self):
        """Per node, ``(base block, appends)`` as lists."""
        return [
            (
                self.base.neighbors(node).tolist() if node < self.base.num_nodes else [],
                list(self.delta.get(node, ())),
            )
            for node in range(self.num_nodes)
        ]


ORACLE_BASE_EDGES = [(0, 1), (0, 2), (1, 2), (3, 0), (3, 4), (3, 4), (4, 0)]
ids = st.integers(0, 10**6)
oracle_ops = st.lists(
    st.one_of(
        st.tuples(st.just("edge"), ids, ids),
        st.tuples(st.just("node"), st.booleans()),
        st.just(("compact",)),
        st.just(("view",)),
    ),
    max_size=60,
)


def oracle_base(node_attr, edge_attr):
    graph = CSRGraph.from_edges(6, ORACLE_BASE_EDGES)
    return CSRGraph(
        graph.indptr,
        graph.indices,
        node_attr=(
            np.arange(18, dtype=np.float32).reshape(6, 3) if node_attr else None
        ),
        edge_attr=(
            np.arange(2 * graph.num_edges, dtype=np.float32).reshape(-1, 2) + 2
            if edge_attr
            else None
        ),
    )


def bytes_equal(mine, theirs):
    if mine is None or theirs is None:
        return mine is None and theirs is None
    return (mine.dtype, mine.shape, mine.tobytes()) == (
        theirs.dtype,
        theirs.shape,
        theirs.tobytes(),
    )


class TestCompactionOracle:
    """The array log against the per-node loop it replaced: byte-equal
    snapshots, and views that keep answering their epoch."""

    @settings(max_examples=150, deadline=None)
    @given(
        ops=oracle_ops,
        threshold=st.integers(1, 25),
        node_attr=st.booleans(),
        edge_attr=st.booleans(),
        shuffle_seed=ids,
    )
    def test_matches_per_node_loop(
        self, ops, threshold, node_attr, edge_attr, shuffle_seed
    ):
        base = oracle_base(node_attr, edge_attr)
        graph = DynamicGraph(base, compact_threshold=threshold)
        oracle = OracleGraph(base, threshold)
        views = []
        for op in ops:
            if op[0] == "edge":
                src, dst = op[1] % graph.num_nodes, op[2] % graph.num_nodes
                graph.add_edge(src, dst)
                oracle.add_edge(src, dst)
            elif op[0] == "node":
                row = None
                if node_attr and op[1]:
                    row = np.full(3, graph.num_nodes, dtype=np.float32)
                graph.add_node(row)
                oracle.add_node(row)
            elif op[0] == "compact":
                graph.compact()
                oracle.compact()
            else:
                views.append((graph.view(), oracle.blocks()))
            assert graph.num_nodes == oracle.num_nodes
            assert graph.delta_edges == sum(map(len, oracle.delta.values()))
        views.append((graph.view(), oracle.blocks()))
        rng = np.random.default_rng(shuffle_seed)
        for view, blocks in views:
            nodes = rng.integers(0, view.num_nodes, size=2 * view.num_nodes)
            values, offsets, base_deg, delta_deg = view.gather(nodes)
            expected = [blocks[node][0] + blocks[node][1] for node in nodes]
            assert values.tolist() == [v for block in expected for v in block]
            assert offsets.tolist() == np.cumsum([0] + list(map(len, expected))).tolist()
            assert base_deg.tolist() == [len(blocks[node][0]) for node in nodes]
            assert delta_deg.tolist() == [len(blocks[node][1]) for node in nodes]
            for node in range(view.num_nodes):
                assert view.neighbors(node).tolist() == sum(blocks[node], [])
        snapshot = graph.snapshot()
        oracle.compact()
        for field in ("indptr", "indices", "edge_attr", "node_attr"):
            assert bytes_equal(getattr(snapshot, field), getattr(oracle.base, field)), field
