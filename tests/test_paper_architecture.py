"""EXPERIMENTS.md's Architecture rows (Section 4): Fig. 7, Tech-2/3/4, Tables
5-7 and 11, the ablations, fabric topologies, VPU/GEMM, multi-card scaling.
Each test asserts the paper's shape and checks its row (tests/experiments_doc).
"""

from collections import OrderedDict

import numpy as np
import pytest

from repro.axe.cache import CoalescingCache
from repro.axe.commands import sample_command
from repro.axe.core import CoreConfig
from repro.axe.engine import AxeEngine, EngineConfig
from repro.axe.events import Simulator
from repro.axe.fifo import Pipeline, split_work
from repro.axe.gemm import GemmConfig, GemmEngine
from repro.axe.loadunit import LoadUnit, MemoryChannel
from repro.axe.resources import engine_resources, sampler_savings, utilization
from repro.axe.sampling import ReservoirSampler, StreamingSampler
from repro.axe.system import MultiCardSystem
from repro.axe.vpu import VectorUnit, onfpga_aggregation_speedup
from repro.graph.csr import CSRGraph
from repro.graph.datasets import instantiate_dataset
from repro.graph.partition import (
    HashPartitioner, LdgPartitioner, RangePartitioner, edge_cut_fraction,
)
from repro.memstore.links import get_link
from repro.mof.bdi import compress_addresses, compressed_size
from repro.mof.frames import GENZ, MOF, FrameFormat, batch_breakdown
from repro.mof.topology import chain, full_mesh, ring
from repro.riscv.asm import assemble
from repro.riscv.cpu import RiscvCpu
from repro.riscv.mmio import MmioBus, MmioDevice
from repro.riscv.qrch import INTERACTION_COSTS, Qrch, QrchQueue
from repro.units import GB

from tests.experiments_doc import check, joined, measured_lines

SECTION = "Architecture"
ROWS = {
    "fig7", "tech2", "tech3", "tech4", "table5", "table6", "table7", "table11",
    "packing", "tags", "coalescing", "partition", "topology", "vpu-gemm", "system",
}


def test_rows_are_the_sections_rows():
    assert set(measured_lines(SECTION)) == ROWS


def test_fig7_pipeline_depth():
    # 256 items of 16 cycles of work each, split over 1..16 stages.
    items = list(range(256))
    fig7 = {d: Pipeline(split_work(16, d)).run(items).cycles for d in (1, 2, 4, 8, 16)}
    latencies = list(fig7.values())
    assert latencies == sorted(latencies, reverse=True)
    assert fig7[1] / fig7[16] > 8  # near-linear at depth 16
    check(SECTION, f"fig7 depth={joined(fig7)} cycles={joined(latencies)} "
                   f"speedup@16={fig7[1] / fig7[16]:.2f}x")


def sample_many(sampler, n=200, k=10, trials=300):
    """Total cycles and peak candidate storage over ``trials`` samples."""
    rng = np.random.default_rng(0)
    runs = [sampler.sample(np.arange(n), k, rng) for _ in range(trials)]
    return sum(run[1] for run in runs), max(run[2] for run in runs)


@pytest.fixture(scope="module")
def tech2():
    return (
        sample_many(ReservoirSampler()), sample_many(StreamingSampler()),
        sampler_savings(),
    )


def test_tech2_streaming_sampler(tech2, tech2_f1):
    (reservoir, reservoir_storage), (streaming, storage), savings = tech2
    # N vs N+K cycles, no candidate storage, a big LUT saving.
    assert reservoir == streaming + 300 * 10
    assert storage <= 10
    assert savings["lut_saving"] > 0.9
    assert 0.2 < savings["reg_saving"] < 0.3
    check(SECTION, f"tech2 cycles={reservoir}/{streaming} "
                   f"storage={reservoir_storage}/{storage} "
                   f"lut_saving={100 * savings['lut_saving']:.1f}% "
                   f"reg_saving={100 * savings['reg_saving']:.1f}% "
                   f"micro_f1={joined(tech2_f1, '{:.3f}')}")


def load_unit_time(max_tags, requests=512):
    sim = Simulator()
    unit = LoadUnit(sim, max_tags=max_tags)
    channel = MemoryChannel(sim, get_link("mof_fabric"))
    for _ in range(requests):
        unit.load(channel, 64, lambda: None)
    return sim.run()


@pytest.fixture(scope="module")
def tech3():
    times = {tags: load_unit_time(tags) for tags in (1, 4, 16, 64, 256, 512)}
    return {tags: times[1] / t for tags, t in times.items()}


def test_tech3_ooo_throughput(tech3):
    # Monotone in tags; >= 20x at the full 512-tag budget.
    values = list(tech3.values())
    assert all(b >= a * 0.99 for a, b in zip(values, values[1:]))
    assert tech3[512] > 20
    check(SECTION, f"tech3 tags={joined(tech3)} speedup={joined(values, '{:.1f}')}")


@pytest.fixture(scope="module")
def tech4():
    """One batch's edge-list reads through 8KB, 64KB and 1MB caches:
    ``{size: (memory requests, element accesses)}``."""
    graph = instantiate_dataset("ml", max_nodes=60_000, seed=0)
    nodes = np.random.default_rng(1).integers(0, graph.num_nodes, 2000).tolist()
    results = {}
    for label, capacity in (("8KB", 8 << 10), ("64KB", 64 << 10), ("1MB", 1 << 20)):
        cache = CoalescingCache(CoreConfig.line_bytes, capacity_bytes=capacity)
        issued = sum(
            cache.access(int(graph.indptr[n]) * 8, graph.degree(n) * 8, element_bytes=8)
            for n in nodes if graph.degree(n)
        )
        results[label] = issued, cache.stats.element_accesses
    return results


def test_tech4_coalescing_cache(tech4):
    (issued_8k, elements), _, (issued_1m, _) = tech4.values()
    # 8KB coalesces several elements per request; a 128x bigger cache
    # saves < 10% of the requests: there is no temporal reuse.
    assert elements / issued_8k > 2.0
    assert issued_1m > 0.9 * issued_8k
    check(SECTION, "tech4 cache={} coalescing={} requests={}".format(
        joined(tech4),
        joined((e / i for i, e in tech4.values()), "{:.2f}"),
        joined(i for i, _ in tech4.values()),
    ))


def test_tech4_random_batches_have_no_reuse():
    """Tech-4's premise: random 512-root batches over a large graph give
    a hardware-sized (1,024-node) LRU almost no temporal reuse."""
    rng = np.random.default_rng(0)
    lru, hits, capacity = OrderedDict(), 0, 1024
    draws = [rng.integers(0, 1_000_000, 512) for _ in range(20)]
    for node in np.concatenate(draws).tolist():
        if node in lru:
            hits += 1
            lru.move_to_end(node)
        else:
            lru[node] = None
            if len(lru) > capacity:
                lru.popitem(last=False)
    assert hits / (20 * 512) < 0.01


def test_table5_packing():
    table5 = {
        (fmt.name, size): batch_breakdown(fmt, 128, size)
        for size in (16, 64) for fmt in (GENZ, MOF)
    }
    util = {key: row.data_utilization for key, row in table5.items()}
    # MoF packs 128 requests into far fewer frames, at the paper's levels.
    assert table5[("mof", 16)].frames < table5[("genz", 16)].frames / 8
    assert abs(util[("genz", 64)] - 0.6598) < 0.01
    assert abs(util[("mof", 64)] - 0.9403) < 0.03
    assert abs(util[("genz", 16)] - 0.3265) < 0.01
    assert abs(util[("mof", 16)] - 0.7811) < 0.03
    check(SECTION, "table5 " + " ".join(
        f"{fmt}={100 * util[(fmt, 16)]:.2f}%/{100 * util[(fmt, 64)]:.2f}%"
        for fmt in ("genz", "mof")
    ) + f" frames={table5[('genz', 16)].frames}/{table5[('mof', 16)].frames}")


@pytest.fixture(scope="module")
def table6():
    rng = np.random.default_rng(0)
    # Embedding-style data (small integers around a common scale) and
    # request addresses clustered around a region base.
    data = (rng.integers(0, 60, 128) + 20_000).astype(np.uint64).tobytes()
    addresses = np.uint64(0x2000_0000) + rng.integers(0, 8192, 128).astype(np.uint64)
    data_bytes = compressed_size(data)
    return [
        batch_breakdown(GENZ, 128, 8).total_bytes,
        batch_breakdown(MOF, 128, 8).total_bytes,
        batch_breakdown(MOF, 128, 8, compressed_data_bytes=data_bytes).total_bytes,
        batch_breakdown(
            MOF, 128, 8, compressed_data_bytes=data_bytes,
            compressed_addr_bytes=compress_addresses(addresses),
        ).total_bytes,
    ]


def test_table6_bdi_progression(table6):
    genz, mof, data_comp, addr_comp = table6
    savings = [1 - b / a for a, b in zip(table6, table6[1:])]
    assert genz > mof > data_comp > addr_comp
    assert savings[0] > 0.6
    assert savings[1] > 0.2
    assert savings[2] > 0.03
    check(SECTION, f"table6 bytes={joined(table6)} "
                   f"savings={joined((100 * s for s in savings), '{:.1f}%')}")


def round_trip_cycles(setup, round_trip, port, device, interactions=32):
    """Cycles per control round trip, ``round_trip`` repeated after ``setup``."""
    cpu = RiscvCpu(**{port: device})
    cpu.load_program(assemble("\n".join(setup + round_trip * interactions + ["ecall"])))
    cpu.run()
    return device.interaction_cycles / interactions


@pytest.fixture(scope="module")
def table7():
    hub = Qrch()
    hub.attach(1, QrchQueue("echo", lambda a, b: a))
    bus = MmioBus(access_cycles=100)
    bus.attach(0x4000_0000, 0x100, MmioDevice("echo"))
    return (
        round_trip_cycles(["lui x1, 0x40000", "addi x2, x0, 7"],
                          ["sw x2, 0(x1)", "lw x4, 0(x1)"], "mmio", bus),
        round_trip_cycles(["addi x2, x0, 7"],
                          ["qpush x0, x2, x0, 1", "qpull x4, 1"], "qrch", hub),
    )


def test_table7_qrch(table7):
    mmio, qrch = table7
    # An order of magnitude between each tier.
    assert 5 <= qrch <= 20
    assert mmio >= 10 * qrch
    assert qrch >= 5 * INTERACTION_COSTS["isa_ext"]
    check(SECTION, f"table7 mmio={mmio:.1f} mmio_per_access={mmio / 2:.1f} "
                   f"qrch={qrch:.1f} isa_ext={INTERACTION_COSTS['isa_ext']}")


def test_table11_resources():
    util = utilization(engine_resources(num_cores=2, num_qsfp=3)).items()
    check(SECTION, "table11 " + " ".join(f"{k}={100 * v:.2f}%" for k, v in util))


def test_ablation_mof_packing():
    # Data utilisation of 256 16B requests at 1..256 requests per frame.
    packing = {
        n: batch_breakdown(
            FrameFormat("packed", header_bytes=31, addr_bytes=4, requests_per_frame=n),
            256, 16,
        ).data_utilization
        for n in (1, 4, 16, 64, 256)
    }
    values = list(packing.values())
    assert values == sorted(values)  # more packing, better utilisation
    assert packing[64] / packing[1] > 1.8
    check(SECTION, f"packing per_frame={joined(packing)} "
                   f"data={joined((100 * v for v in values), '{:.2f}%')}")


def one_core_roots_per_s(graph, roots, core, **config):
    """Roots/s of one (10, 10) sample of ``roots`` roots on one AxE core."""
    config = EngineConfig(num_cores=1, core=core, output_link=None, **config)
    command = sample_command(np.arange(roots), (10, 10))
    return AxeEngine(graph, config).run(command)[1].roots_per_second


@pytest.fixture(scope="module")
def tags():
    graph = instantiate_dataset("ls", max_nodes=5000, seed=0)
    return {
        budget: one_core_roots_per_s(
            graph, 64, CoreConfig(max_tags=budget, window=16), num_fpga_nodes=4
        )
        for budget in (4, 16, 64, 256)
    }


def test_ablation_tag_budget(tags):
    assert tags[256] > tags[4]  # memory-level parallelism pays off
    assert tags[256] / tags[64] < tags[16] / tags[4]  # with diminishing returns
    check(SECTION, f"tags tags={joined(tags)} "
                   f"kroots_per_s={joined((r / 1e3 for r in tags.values()), '{:.1f}')}")


@pytest.fixture(scope="module")
def coalescing():
    graph = instantiate_dataset("ml", max_nodes=4000, seed=0)
    cores = [CoreConfig(coalescing=on, max_tags=64, window=8) for on in (True, False)]
    return [one_core_roots_per_s(graph, 48, core) for core in cores]


def test_ablation_coalescing(coalescing):
    on, off = coalescing
    assert on >= off
    check(SECTION, f"coalescing kroots_per_s_on/off={on / 1e3:.1f}/{off / 1e3:.1f}")


@pytest.fixture(scope="module")
def partition():
    """Edge cut (a remote-traffic proxy) of three partitioners over 8 parts
    of a graph with 8 communities."""
    rng = np.random.default_rng(0)
    communities = rng.integers(0, 8, 800)
    edges = [
        (node, int(rng.choice(np.flatnonzero(communities == communities[node]))))
        for node in range(800)
        for _ in range(6)
    ]
    graph = CSRGraph.from_edges(800, edges)
    return {
        "hash": edge_cut_fraction(HashPartitioner(8), graph),
        "range": edge_cut_fraction(RangePartitioner(8, 800), graph),
        "ldg": edge_cut_fraction(LdgPartitioner(8, graph), graph),
    }


def test_ablation_partitioner(partition):
    assert partition["ldg"] < partition["hash"]
    check(SECTION, "partition " + " ".join(
        f"{name}={100 * cut:.1f}%" for name, cut in partition.items()
    ))


def test_fabric_topologies():
    topology = {"mesh": full_mesh(4), "ring": ring(4), "chain": chain(4)}
    mesh, ring4, chain4 = shapes = list(topology.values())
    assert mesh.effective_pair_bandwidth() > ring4.effective_pair_bandwidth()
    assert (
        mesh.bisection_bandwidth() > ring4.bisection_bandwidth()
        > chain4.bisection_bandwidth()
    )
    pairs = [(s, d) for s in range(4) for d in range(4) if s != d]
    check(SECTION, "topology kind={} links={} pair_GBps={} bisection_GBps={} "
                   "max_hops={}".format(
        joined(topology),
        joined(len(t.links) for t in shapes),
        joined((t.effective_pair_bandwidth() / GB for t in shapes), "{:.2f}"),
        joined((t.bisection_bandwidth() / GB for t in shapes), "{:.2f}"),
        joined(max(t.hops(s, d) for s, d in pairs) for t in shapes),
    ))


@pytest.fixture(scope="module")
def vpu_gemm():
    rng = np.random.default_rng(0)
    neighborhoods = rng.standard_normal((64, 10, 128)).astype(np.float32)
    reduced, _cycles = VectorUnit().reduce_neighborhood("max", neighborhoods)
    speedup = onfpga_aggregation_speedup(
        attr_len=128, fanout=10, output_bandwidth=16 * GB, batch_nodes=640
    )
    engine = GemmEngine(GemmConfig(array_rows=32, array_cols=32))
    a = rng.standard_normal((256, 128)).astype(np.float32)
    b = rng.standard_normal((128, 128)).astype(np.float32)
    product, _cycles = engine.matmul(a, b)
    return neighborhoods, reduced, speedup, engine, (a, b, product)


def test_vpu_aggregation_and_gemm(vpu_gemm):
    neighborhoods, reduced, speedup, engine, (a, b, product) = vpu_gemm
    # On-FPGA max-aggregation cuts output traffic by the fanout.
    assert reduced.shape == (64, 128)
    assert np.allclose(reduced, neighborhoods.max(axis=1))
    assert speedup == 10.0
    # An FPGA FP32 systolic array is not GPU-class: the paper keeps the
    # dense NN stage on GPUs.
    assert np.allclose(product, a @ b, atol=1e-3)
    assert engine.config.peak_tflops < 1.0
    check(SECTION, f"vpu-gemm traffic_reduction={speedup:.1f}x "
                   f"peak_tflops={engine.config.peak_tflops:.3f} "
                   f"achieved_tflops={engine.achieved_tflops():.3f}")


@pytest.fixture(scope="module")
def system():
    """One 96-root batch on 1, 2 and 4 cards (mesh) and 4 cards (ring)."""
    graph = instantiate_dataset("ls", max_nodes=6000, seed=0)
    return {
        label: MultiCardSystem(
            graph,
            EngineConfig(num_fpga_nodes=cards, output_link=None),
            topology=fabric,
        ).run_batch(np.arange(96))
        for label, cards, fabric in (
            ("1", 1, None), ("2", 2, None), ("4", 4, None), ("4ring", 4, ring(4))
        )
    }


def test_system_scaling(system):
    one, two, four, ring4 = runs = list(system.values())
    # Scaling out helps despite the remote fraction; the PoC's mesh is at
    # least as good as a ring.
    assert four.roots_per_second > 1.5 * one.roots_per_second
    assert two.roots_per_second > one.roots_per_second
    assert four.roots_per_second >= 0.98 * ring4.roots_per_second
    assert 0.6 < four.remote_fraction < 0.9
    check(SECTION, "system cards={} speedup={} remote={}".format(
        joined(system),
        joined((s.roots_per_second / one.roots_per_second for s in runs), "{:.2f}"),
        joined((100 * s.remote_fraction for s in runs), "{:.1f}%"),
    ))
