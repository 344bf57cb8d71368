"""Property-based tests (hypothesis) on core data structures and
invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.axe.cache import CoalescingCache
from repro.axe.sampling import ReservoirSampler, StreamingSampler
from repro.axe.scoreboard import OrderingScoreboard
from repro.framework.selectors import select_streaming, select_uniform
from repro.graph.csr import CSRGraph
from repro.graph.partition import HashPartitioner, RangePartitioner
from repro.memstore.links import LinkModel
from repro.mof.bdi import bdi_compress, bdi_decompress, compress_block, decompress_block
from repro.mof.frames import GENZ, MOF, batch_breakdown
from repro.riscv import isa


# --------------------------------------------------------------------- graph
@st.composite
def edge_lists(draw):
    num_nodes = draw(st.integers(1, 50))
    num_edges = draw(st.integers(0, 200))
    edges = [
        (draw(st.integers(0, num_nodes - 1)), draw(st.integers(0, num_nodes - 1)))
        for _ in range(num_edges)
    ]
    return num_nodes, edges


class TestCsrProperties:
    @given(edge_lists())
    @settings(max_examples=50, deadline=None)
    def test_csr_preserves_edge_multiset(self, data):
        num_nodes, edges = data
        graph = CSRGraph.from_edges(num_nodes, edges)
        rebuilt = sorted(
            (int(src), int(dst))
            for src in range(num_nodes)
            for dst in graph.neighbors(src)
        )
        assert rebuilt == sorted(edges)

    @given(edge_lists())
    @settings(max_examples=50, deadline=None)
    def test_degrees_sum_to_edges(self, data):
        num_nodes, edges = data
        graph = CSRGraph.from_edges(num_nodes, edges)
        assert int(graph.degrees().sum()) == len(edges)


# ----------------------------------------------------------------- partition
class TestPartitionProperties:
    @given(
        st.integers(1, 16),
        st.lists(st.integers(0, 10_000), min_size=1, max_size=100),
    )
    @settings(max_examples=50, deadline=None)
    def test_hash_partition_total(self, parts, nodes):
        partitioner = HashPartitioner(parts)
        owners = partitioner.partition_of(np.array(nodes))
        assert ((owners >= 0) & (owners < parts)).all()

    @given(st.integers(1, 8), st.integers(1, 500))
    @settings(max_examples=50, deadline=None)
    def test_range_partition_covers_everything_once(self, parts, num_nodes):
        partitioner = RangePartitioner(parts, num_nodes)
        owners = partitioner.partition_of(np.arange(num_nodes))
        # Partition IDs are non-decreasing and within range.
        assert (np.diff(owners) >= 0).all()
        assert owners.max() < parts


# ------------------------------------------------------------------ sampling
class TestSamplingProperties:
    @given(
        st.lists(st.integers(0, 10**6), min_size=1, max_size=200),
        st.integers(1, 32),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_selectors_return_members(self, neighbors, fanout, seed):
        neighbors = np.array(neighbors)
        rng = np.random.default_rng(seed)
        for selector in (select_uniform, select_streaming):
            picks = selector(neighbors, fanout, rng)
            assert len(picks) == fanout
            assert set(np.asarray(picks).tolist()) <= set(neighbors.tolist())

    @given(st.integers(1, 1000), st.integers(1, 64))
    @settings(max_examples=60, deadline=None)
    def test_streaming_never_slower_cycles(self, candidates, fanout):
        streaming = StreamingSampler().cycles(candidates, fanout)
        reservoir = ReservoirSampler().cycles(candidates, fanout)
        assert streaming <= reservoir
        assert streaming == max(candidates, fanout)


# ---------------------------------------------------------------- scoreboard
class TestScoreboardProperties:
    @given(st.permutations(list(range(12))))
    @settings(max_examples=40, deadline=None)
    def test_any_completion_order_releases_in_order(self, completion_order):
        board = OrderingScoreboard(12)
        ids = [board.allocate() for _ in range(12)]
        released = []
        for index in completion_order:
            board.complete(ids[index], index)
            released.extend(board.release_ready())
        assert released == list(range(12))


# ----------------------------------------------------------------------- BDI
class TestBdiProperties:
    @given(st.binary(min_size=1, max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_block_roundtrip(self, block):
        decoded = decompress_block(compress_block(block))
        assert decoded[: len(block)] == block

    @given(st.binary(min_size=1, max_size=512))
    @settings(max_examples=60, deadline=None)
    def test_stream_roundtrip(self, data):
        blocks = bdi_compress(data)
        assert bdi_decompress(blocks, len(data)) == data

    @given(
        st.integers(0, 2**60),
        st.integers(1, 255),
        st.integers(1, 64),
    )
    @settings(max_examples=60, deadline=None)
    def test_clustered_values_compress(self, base, spread, count):
        values = (base + np.arange(count) % spread).astype(np.uint64)
        data = values.tobytes()
        blocks = bdi_compress(data)
        assert bdi_decompress(blocks, len(data)) == data

    @given(st.binary(min_size=1, max_size=64))
    @settings(max_examples=60, deadline=None)
    def test_encoded_never_much_larger(self, block):
        assert len(compress_block(block)) <= 65  # raw + 1 header byte


# -------------------------------------------------------------------- frames
class TestFrameProperties:
    @given(st.integers(1, 4096), st.integers(1, 1024))
    @settings(max_examples=60, deadline=None)
    def test_fractions_sum_to_one(self, requests, size):
        for fmt in (GENZ, MOF):
            row = batch_breakdown(fmt, requests, size)
            total = row.header_fraction + row.addr_fraction + row.data_utilization
            assert total == pytest.approx(1.0)

    @given(st.integers(1, 4096), st.integers(1, 256))
    @settings(max_examples=60, deadline=None)
    def test_mof_packs_fewer_frames(self, requests, size):
        assert (
            batch_breakdown(MOF, requests, size).frames
            <= batch_breakdown(GENZ, requests, size).frames
        )


# ----------------------------------------------------------------------- ISA
class TestIsaProperties:
    @given(
        st.integers(0, 31),
        st.integers(0, 31),
        st.integers(0, 31),
        st.sampled_from([0b000, 0b001, 0b010, 0b011, 0b100, 0b101, 0b110, 0b111]),
        st.sampled_from([0b0000000, 0b0100000]),
    )
    @settings(max_examples=60, deadline=None)
    def test_rtype_roundtrip(self, rd, rs1, rs2, funct3, funct7):
        instr = isa.Instruction(
            isa.OPCODE_OP, rd=rd, rs1=rs1, rs2=rs2, funct3=funct3, funct7=funct7
        )
        assert isa.decode(isa.encode(instr)) == instr

    @given(st.integers(0, 31), st.integers(0, 31), st.integers(-2048, 2047))
    @settings(max_examples=60, deadline=None)
    def test_itype_imm_roundtrip(self, rd, rs1, imm):
        instr = isa.Instruction(
            isa.OPCODE_OP_IMM, rd=rd, rs1=rs1, funct3=0b000, imm=imm
        )
        assert isa.decode(isa.encode(instr)).imm == imm

    @given(st.integers(-4096, 4094).filter(lambda x: x % 2 == 0))
    @settings(max_examples=60, deadline=None)
    def test_branch_offset_roundtrip(self, imm):
        instr = isa.Instruction(isa.OPCODE_BRANCH, rs1=1, rs2=2, funct3=0, imm=imm)
        assert isa.decode(isa.encode(instr)).imm == imm


# ------------------------------------------------------------------- link
class TestLinkProperties:
    @given(
        st.floats(1e-9, 1e-3),
        st.floats(1e6, 1e12),
        st.integers(0, 256),
        st.integers(1, 1 << 20),
        st.integers(1, 10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_effective_bandwidth_bounded_by_peak(
        self, latency, peak, overhead, request, outstanding
    ):
        link = LinkModel("x", latency, peak, overhead)
        # Allow float rounding exactly at the wire bound.
        assert link.effective_bandwidth(request, outstanding) <= peak * (1 + 1e-9)


# ------------------------------------------------------------------- cache
class TestCacheProperties:
    @given(
        st.lists(
            st.tuples(st.integers(0, 1 << 20), st.integers(1, 512)),
            min_size=1,
            max_size=100,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_requests_never_exceed_lines_spanned(self, accesses):
        cache = CoalescingCache()
        for addr, nbytes in accesses:
            issued = cache.access(addr, nbytes)
            assert 0 <= issued <= cache.requests_for(addr, nbytes)


# ---------------------------------------------------------------- topology
class TestTopologyProperties:
    @given(st.integers(2, 10))
    @settings(max_examples=30, deadline=None)
    def test_mesh_always_single_hop(self, num_nodes):
        from repro.mof.topology import full_mesh

        mesh = full_mesh(num_nodes)
        for src in range(num_nodes):
            for dst in range(num_nodes):
                assert mesh.hops(src, dst) == (0 if src == dst else 1)

    @given(st.integers(3, 12))
    @settings(max_examples=30, deadline=None)
    def test_ring_hops_bounded_by_half(self, num_nodes):
        from repro.mof.topology import ring

        topology = ring(num_nodes)
        for dst in range(num_nodes):
            assert topology.hops(0, dst) <= num_nodes // 2


# ------------------------------------------------------------------- index
class TestIndexProperties:
    @given(
        st.lists(
            st.integers(0, 2**62), min_size=1, max_size=200, unique=True
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_index_roundtrip(self, externals):
        from repro.memstore.index import ExternalIdIndex

        index = ExternalIdIndex.build(np.array(externals, dtype=np.uint64))
        for internal, external in enumerate(externals):
            assert index.lookup(external) == internal

    @given(
        st.lists(st.integers(0, 2**62), min_size=1, max_size=100, unique=True),
        st.integers(0, 2**62),
    )
    @settings(max_examples=40, deadline=None)
    def test_absent_keys_return_none(self, externals, probe):
        from repro.memstore.index import ExternalIdIndex

        index = ExternalIdIndex.build(np.array(externals, dtype=np.uint64))
        if probe not in externals:
            assert index.lookup(probe) is None


# ----------------------------------------------------------- dynamic graph
class TestDynamicGraphProperties:
    @given(
        st.lists(
            st.tuples(st.integers(0, 19), st.integers(0, 19)),
            min_size=0,
            max_size=100,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_compaction_is_transparent(self, edges):
        from repro.graph.csr import CSRGraph
        from repro.graph.dynamic import DynamicGraph

        graph = DynamicGraph(CSRGraph.from_edges(20, []), compact_threshold=10**9)
        graph.add_edges(edges)
        before = {n: sorted(graph.neighbors(n).tolist()) for n in range(20)}
        graph.compact()
        after = {n: sorted(graph.neighbors(n).tolist()) for n in range(20)}
        assert before == after
        assert graph.num_edges == len(edges)
