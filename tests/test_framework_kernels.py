"""Tests for the NumPy kernels and the one-attribute contract around them."""

import numpy as np
import pytest

from repro.framework.kernels import (
    NUMPY_KERNELS,
    compiled_available,
    rowwise_weighted_picks,
)
from repro.framework.requests import SampleRequest
from repro.framework.sampler import MultiHopSampler
from repro.framework.selectors import SELECTORS
from repro.graph.csr import CSRGraph
from repro.graph.generators import power_law_graph
from repro.graph.partition import HashPartitioner
from repro.memstore.store import PartitionedStore

PRIMITIVES = (
    "rowwise_weighted_picks",
    "gather_rows",
    "take_picks",
    "segment_sum",
    "ragged_segment_sum",
)


class TestNumpyKernels:
    def test_gather_rows(self):
        values = np.arange(10) * 10
        out = NUMPY_KERNELS.gather_rows(values, np.array([0, 4, 7]), 3)
        assert out.tolist() == [[0, 10, 20], [40, 50, 60], [70, 80, 90]]

    def test_take_picks(self):
        matrix = np.array([[1, 2, 3], [4, 5, 6]])
        picks = np.array([[2, 0], [1, 1]])
        out = NUMPY_KERNELS.take_picks(matrix, picks)
        assert out.tolist() == [[3, 1], [5, 5]]

    def test_segment_sum_accumulates_duplicates(self):
        values = np.array([[1.0], [2.0], [4.0]])
        out = NUMPY_KERNELS.segment_sum(values, np.array([1, 1, 0]), 3)
        assert out.tolist() == [[4.0], [3.0], [0.0]]

    def test_ragged_segment_sum_handles_empty_segments(self):
        values = np.arange(6, dtype=np.float64).reshape(3, 2)
        offsets = np.array([0, 0, 2, 2, 3])
        out = NUMPY_KERNELS.ragged_segment_sum(values, offsets)
        assert out.tolist() == [[0, 0], [2, 4], [0, 0], [4, 5]]

    def test_rowwise_picks_is_module_function(self):
        cdf = np.array([[0.5, 1.0]])
        draws = np.array([[0.4, 0.6]])
        assert np.array_equal(
            NUMPY_KERNELS.rowwise_weighted_picks(cdf, draws),
            rowwise_weighted_picks(cdf, draws),
        )

    def test_no_compiled_implementation(self):
        assert NUMPY_KERNELS.name == "numpy"
        assert NUMPY_KERNELS.compiled is False
        assert compiled_available() is False


def counting(calls, primitive, fn):
    """``fn``, with every call tallied under ``calls[primitive]``."""

    def counted(*args, **kwargs):
        calls[primitive] += 1
        return fn(*args, **kwargs)

    return counted


class RecordingKernels:
    """Stand-in exposing only what ``bench/spans.py::TimedKernels`` does:
    ``name``, ``compiled`` and the five primitives, each call counted."""

    __slots__ = ("name", "compiled", "calls") + PRIMITIVES

    def __init__(self, inner):
        self.name = inner.name
        self.compiled = inner.compiled
        self.calls = dict.fromkeys(PRIMITIVES, 0)
        for primitive in PRIMITIVES:
            setattr(
                self, primitive, counting(self.calls, primitive, getattr(inner, primitive))
            )


@pytest.fixture(scope="module")
def weighted_graph():
    base = power_law_graph(800, 6.0, attr_len=6, seed=2)
    rng = np.random.default_rng(3)
    return CSRGraph(
        indptr=base.indptr,
        indices=base.indices,
        node_attr=base.node_attr,
        edge_attr=rng.random(base.indices.size).astype(np.float32),
    )


class TestSamplerReachesKernelsThroughOneAttribute:
    """``sampler.kernels`` is the only door to the array primitives, so
    a proxy swapped in there (the traced benchmark does exactly that)
    sees every call and changes no result."""

    #: Primitives each selector's batched path is built from.
    USED = {
        "uniform": {"take_picks"},
        "streaming": {"take_picks"},
        "weighted": {"gather_rows", "rowwise_weighted_picks", "take_picks"},
        "streaming_weighted": {"gather_rows", "rowwise_weighted_picks", "take_picks"},
    }

    def sample(self, graph, selector_name, proxied):
        store = PartitionedStore(graph, HashPartitioner(3))
        sampler = MultiHopSampler(
            store,
            seed=9,
            worker_partition=1,
            selector=SELECTORS[selector_name],
        )
        proxy = None
        if proxied:
            proxy = RecordingKernels(sampler.kernels)
            sampler.kernels = proxy
        roots = np.random.default_rng(5).integers(0, graph.num_nodes, size=32)
        result = sampler.sample(
            SampleRequest(roots=roots, fanouts=(4, 3), with_attributes=True)
        )
        return result, store.summary, proxy

    @pytest.mark.parametrize("selector_name", sorted(SELECTORS))
    def test_proxy_sees_every_primitive_call(
        self, weighted_graph, selector_name, monkeypatch
    ):
        graph = weighted_graph
        plain, plain_summary, _ = self.sample(graph, selector_name, proxied=False)
        # Count what actually runs underneath: a call that reaches a
        # primitive without going through ``sampler.kernels`` shows up
        # here and not on the proxy.
        executed = dict.fromkeys(PRIMITIVES, 0)
        for primitive in PRIMITIVES:
            fn = getattr(NUMPY_KERNELS, primitive)
            monkeypatch.setattr(
                type(NUMPY_KERNELS),
                primitive,
                staticmethod(counting(executed, primitive, fn)),
            )
        proxied, proxied_summary, proxy = self.sample(graph, selector_name, proxied=True)
        assert len(proxied.layers) == len(plain.layers)
        for got, want in zip(proxied.layers, plain.layers):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        for got, want in zip(proxied.attributes, plain.attributes):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert proxied_summary == plain_summary
        assert proxy.calls == executed
        used = {primitive for primitive, n in proxy.calls.items() if n}
        assert used == self.USED[selector_name]
