"""Tests for the zero-copy shard plane (repro.parallel.shm)."""

import pickle

import numpy as np
import pytest

from repro.errors import ConfigurationError, GraphError
from repro.graph.csr import CSRGraph
from repro.parallel.shm import (
    BLOCK_ALIGN,
    AttachedBlock,
    ArraySpec,
    GraphHandle,
    SharedBlock,
    align_up,
    attach_graph,
    export_graph,
    pack_arrays,
    view_array,
)


def small_graph(attr: bool = True) -> CSRGraph:
    indptr = np.array([0, 2, 3, 3, 5], dtype=np.int64)
    indices = np.array([1, 3, 2, 0, 1], dtype=np.int64)
    node_attr = (
        np.arange(16, dtype=np.float32).reshape(4, 4) if attr else None
    )
    return CSRGraph(indptr=indptr, indices=indices, node_attr=node_attr)


class TestAlignUp:
    def test_rounds_to_alignment(self):
        assert align_up(0) == 0
        assert align_up(1) == BLOCK_ALIGN
        assert align_up(BLOCK_ALIGN) == BLOCK_ALIGN
        assert align_up(BLOCK_ALIGN + 1) == 2 * BLOCK_ALIGN

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            align_up(-1)


class TestSharedBlock:
    def test_rejects_bad_size_and_backend(self):
        with pytest.raises(ConfigurationError):
            SharedBlock(0)
        with pytest.raises(ConfigurationError):
            SharedBlock(64, backend="nfs")

    @pytest.mark.parametrize("backend", ["auto", "shm", "mmap"])
    def test_round_trip(self, backend):
        with SharedBlock(256, backend=backend) as block:
            view = np.ndarray(32, dtype=np.int64, buffer=block.buf)
            view[...] = np.arange(32)
            handle = block.handle
            assert handle.nbytes == 256
            attached = AttachedBlock(handle)
            echo = np.ndarray(32, dtype=np.int64, buffer=attached.buf)
            np.testing.assert_array_equal(echo, np.arange(32))
            # Writes travel both ways: it is the same memory.
            echo[0] = -7
            assert view[0] == -7
            attached.close()

    def test_unlink_is_idempotent(self):
        block = SharedBlock(64, backend="mmap")
        block.close()
        block.unlink()
        block.unlink()  # second call is a no-op


class TestPackArrays:
    def test_offsets_aligned_and_values_preserved(self):
        arrays = {
            "a": np.arange(5, dtype=np.int64),
            "b": np.linspace(0, 1, 7, dtype=np.float32),
            "c": np.empty(0, dtype=np.int64),
        }
        block, specs = pack_arrays(arrays, backend="mmap")
        try:
            for spec in specs:
                assert spec.offset % BLOCK_ALIGN == 0
                np.testing.assert_array_equal(
                    view_array(block.buf, spec), arrays[spec.key]
                )
        finally:
            block.close()
            block.unlink()

    def test_spec_nbytes(self):
        spec = ArraySpec("x", (3, 4), "<f4", 0)
        assert spec.nbytes == 48


class TestGraphPlane:
    @pytest.mark.parametrize("backend", ["auto", "mmap"])
    def test_export_attach_round_trip(self, backend):
        graph = small_graph()
        plane = export_graph(graph, backend=backend)
        try:
            # The handle must cross a process boundary: picklable.
            handle = pickle.loads(pickle.dumps(plane.handle))
            assert isinstance(handle, GraphHandle)
            attached = attach_graph(handle)
            try:
                remote = attached.graph
                np.testing.assert_array_equal(remote.indptr, graph.indptr)
                np.testing.assert_array_equal(remote.indices, graph.indices)
                np.testing.assert_array_equal(remote.node_attr, graph.node_attr)
                assert remote.num_nodes == graph.num_nodes
                # Zero-copy: the attached arrays view shared memory, they
                # do not own a private allocation.
                assert not remote.indices.flags.owndata
            finally:
                attached.close()
        finally:
            plane.close()
            plane.unlink()

    def test_attr_free_graph(self):
        graph = small_graph(attr=False)
        plane = export_graph(graph, backend="mmap")
        try:
            attached = attach_graph(plane.handle)
            assert attached.graph.node_attr is None
            attached.close()
        finally:
            plane.close()
            plane.unlink()

    def test_missing_csr_arrays_rejected(self):
        block, specs = pack_arrays(
            {"node_attr": np.zeros((2, 2), dtype=np.float32)}, backend="mmap"
        )
        try:
            handle = GraphHandle(
                block=block.handle, arrays=specs, num_dst_nodes=None
            )
            with pytest.raises(GraphError):
                attach_graph(handle)
        finally:
            block.close()
            block.unlink()

    def test_sampling_over_attached_graph_matches(self):
        """An attached graph drives the sampler exactly like the original."""
        from repro.framework.requests import SampleRequest
        from repro.framework.sampler import MultiHopSampler
        from repro.graph.partition import HashPartitioner
        from repro.memstore.store import PartitionedStore

        graph = small_graph()
        request = SampleRequest(
            roots=np.array([0, 3]), fanouts=(2,), with_attributes=True
        )

        def run(g):
            store = PartitionedStore(g, HashPartitioner(2))
            sampler = MultiHopSampler(store, seed=7)
            return sampler.sample(request), store.summary

        plane = export_graph(graph, backend="mmap")
        try:
            attached = attach_graph(plane.handle)
            try:
                local, local_summary = run(graph)
                remote, remote_summary = run(attached.graph)
                for mine, theirs in zip(local.layers, remote.layers):
                    np.testing.assert_array_equal(mine, theirs)
                assert local_summary == remote_summary
            finally:
                attached.close()
        finally:
            plane.close()
            plane.unlink()
