"""Tests for the sharded parallel engine and pipelined executor.

The load-bearing invariant is the determinism contract: shard
membership and per-task RNG streams depend only on ``(seed, shard,
seq)``, so layers, attributes, and the merged ``AccessSummary`` are
bit-identical at every worker count — ``workers=0`` (inline) is the
reference the process pools are compared against.
"""

import dataclasses
import hashlib
import multiprocessing
import os
import signal
import tempfile
import threading
import time

import numpy as np
import pytest

from repro.errors import (
    ConfigurationError,
    GraphError,
    ParallelExecutionError,
)
from repro.framework.replay import replay_reference
from repro.framework.requests import NegativeSampleRequest, SampleRequest
from repro.framework.sampler import MultiHopSampler
from repro.framework.selectors import SELECTORS
from repro.graph.csr import CSRGraph
from repro.graph.datasets import instantiate_dataset
from repro.graph.partition import HashPartitioner, RangePartitioner
from repro.memstore.faults import FaultInjector, ReliableReadPath
from repro.memstore.replication import ReplicaPlacement
from repro.memstore.retry import RetryPolicy
from repro.memstore.store import AccessSummary, PartitionedStore
from repro.parallel import (
    ParallelSampler,
    PipelinedExecutor,
    micro_batches,
    shard_seed,
)
from repro.parallel.engine import DONE_POLL_S
from repro.parallel.worker import ShardRuntime, ShardTask

NUM_NODES = 600
FANOUTS = (4, 3)


def make_graph(seed: int = 0):
    return instantiate_dataset("ss", max_nodes=NUM_NODES, seed=seed)


def make_store(graph, partitions: int = 4):
    return PartitionedStore(graph, HashPartitioner(partitions))


def make_request(graph, batch: int = 48, seed: int = 1):
    roots = np.random.default_rng(seed).integers(
        0, graph.num_nodes, size=batch
    )
    return SampleRequest(roots=roots, fanouts=FANOUTS, with_attributes=True)


def run_engine(graph, request, workers, **kwargs):
    store = make_store(graph)
    with ParallelSampler(store, workers=workers, seed=3, **kwargs) as engine:
        result = engine.sample(request)
    return result, store.summary


class TestShardSeed:
    def test_streams_are_stable_and_distinct(self):
        a = np.random.default_rng(shard_seed(0, 1, 2)).integers(0, 1 << 30, 8)
        b = np.random.default_rng(shard_seed(0, 1, 2)).integers(0, 1 << 30, 8)
        c = np.random.default_rng(shard_seed(0, 2, 1)).integers(0, 1 << 30, 8)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)


class TestConstruction:
    def test_rejects_bad_params(self):
        store = make_store(make_graph())
        with pytest.raises(ConfigurationError):
            ParallelSampler(store, workers=-1)

    def test_rejects_reliability_store(self):
        graph = make_graph()
        placement = ReplicaPlacement(num_partitions=2, replication_factor=1)
        path = ReliableReadPath(
            placement, RetryPolicy(hedge=False), FaultInjector(), seed=0
        )
        store = PartitionedStore(
            graph, RangePartitioner(2, graph.num_nodes), reliability=path
        )
        with pytest.raises(ConfigurationError):
            ParallelSampler(store)

    def test_duck_types_sampler_surface(self):
        engine = ParallelSampler(make_store(make_graph()))
        assert isinstance(engine, MultiHopSampler)
        assert engine.cache is None
        assert engine.degraded_fallbacks == 0
        assert engine.fault_stats is engine.store.fault_stats
        engine.close()


class TestDeterminism:
    def test_worker_counts_agree(self):
        """workers=0/1/2 produce bit-identical layers, attrs, accounting."""
        graph = make_graph()
        request = make_request(graph)
        reference, ref_summary = run_engine(graph, request, workers=0)
        for workers in (1, 2):
            result, summary = run_engine(graph, request, workers=workers)
            for mine, theirs in zip(reference.layers, result.layers):
                np.testing.assert_array_equal(mine, theirs)
            for mine, theirs in zip(reference.attributes, result.attributes):
                np.testing.assert_array_equal(mine, theirs)
            assert summary == ref_summary

    def test_spawned_worker_agrees_with_inline(self, monkeypatch):
        """Where ``fork`` is missing the worker is spawned and gets the
        graph pickled once: the only path that copies it."""
        monkeypatch.setattr(
            ParallelSampler, "_mp_context", lambda self: multiprocessing.get_context("spawn")
        )
        graph = make_graph()
        request = make_request(graph)
        reference, ref_summary = run_engine(graph, request, workers=0)
        result, summary = run_engine(graph, request, workers=1)
        for mine, theirs in zip(reference.layers, result.layers):
            np.testing.assert_array_equal(mine, theirs)
        for mine, theirs in zip(reference.attributes, result.attributes):
            np.testing.assert_array_equal(mine, theirs)
        assert summary == ref_summary

    def test_shard_workers_keep_locality_counters(self):
        """Shadow stores inherit ``track_locality``: the shards' adjacency
        gathers are charged to the coordinator's gather counters."""
        graph = instantiate_dataset("ll", max_nodes=NUM_NODES, seed=0)
        request = SampleRequest(
            roots=np.random.default_rng(1).integers(0, graph.num_nodes, size=64),
            fanouts=FANOUTS,
            with_attributes=False,
        )
        summaries = []
        for workers in (0, 2):
            store = PartitionedStore(
                graph, HashPartitioner(4), track_locality=True
            )
            with ParallelSampler(store, workers=workers, seed=3) as engine:
                engine.sample(request)
            summaries.append(store.summary)
        assert summaries[0].gather_nodes > 0
        assert summaries[0].gather_runs > 0
        assert summaries[0] == summaries[1]

    def test_replay_parity(self):
        """Merged summary == serial reference walk over the same layers."""
        graph = make_graph()
        request = make_request(graph)
        result, summary = run_engine(graph, request, workers=2)
        replay_store = make_store(graph)
        replay_reference(result, request, replay_store)
        assert summary == replay_store.summary

    def test_negative_sampling_stable_across_workers(self):
        graph = make_graph()
        pairs = np.stack(
            [np.arange(10, dtype=np.int64), np.arange(1, 11, dtype=np.int64)],
            axis=1,
        )
        request = NegativeSampleRequest(pairs=pairs, rate=3)
        outs = []
        for workers in (0, 1):
            with ParallelSampler(
                make_store(graph), workers=workers, seed=3
            ) as engine:
                outs.append(engine.negative_sample(request))
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_structure_only_request(self):
        graph = make_graph()
        request = SampleRequest(
            roots=np.arange(16, dtype=np.int64),
            fanouts=FANOUTS,
            with_attributes=False,
        )
        result, _ = run_engine(graph, request, workers=0)
        assert result.attributes is None
        assert len(result.layers) == len(FANOUTS) + 1


def stream_graph():
    """Degrees 0..11 plus a few hubs, with edge weights: isolated,
    below-fanout and weighted rows all occur."""
    rng = np.random.default_rng(21)
    num_nodes = 800
    degrees = rng.integers(0, 12, size=num_nodes)
    degrees[rng.integers(0, num_nodes, size=16)] = rng.integers(30, 90, size=16)
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    return CSRGraph(
        indptr=indptr,
        indices=rng.integers(0, num_nodes, size=int(indptr[-1])),
        node_attr=rng.random((num_nodes, 3)).astype(np.float32),
        edge_attr=rng.random(int(indptr[-1])).astype(np.float32),
    )


def select_custom(neighbors, fanout, rng, weights=None):
    """A weighted selector the batched sampler has no bucket variant
    for: it runs per position."""
    weights = np.asarray(weights, dtype=np.float64)
    return neighbors[
        rng.choice(neighbors.size, size=fanout, p=weights / weights.sum())
    ]


def run_shard_oracle(store, selector, task, seed, worker_partition):
    """One shard task sampled on its own, the way each shard ran before
    a process expanded all of its shards in one pass."""
    shadow = PartitionedStore(store.graph, store.partitioner)
    sampler = MultiHopSampler(
        shadow, selector=selector, worker_partition=worker_partition
    )
    sampler.rng = np.random.default_rng(shard_seed(seed, task.shard, task.seq))
    result = sampler.sample(
        SampleRequest(roots=task.roots, fanouts=task.fanouts, with_attributes=False)
    )
    return result.layers[1:], shadow.summary


def sharded_layers_digest(selector_name):
    """SHA-256 over every layer of three workers=0 requests (1-3 hops)
    plus the coordinator's locality-tracked summary."""
    graph = stream_graph()
    rng = np.random.default_rng(22)
    store = PartitionedStore(graph, HashPartitioner(4), track_locality=True)
    digest = hashlib.sha256()
    with ParallelSampler(
        store,
        workers=0,
        seed=13,
        sampling_method=selector_name,
        worker_partition=0,
    ) as engine:
        for fanouts in ((6,), (6, 5), (3, 2, 2)):
            roots = rng.integers(0, graph.num_nodes, size=64)
            result = engine.sample(SampleRequest(roots=roots, fanouts=fanouts))
            for layer in result.layers:
                digest.update(np.ascontiguousarray(layer, dtype=np.int64).tobytes())
    digest.update(repr(dataclasses.astuple(store.summary)).encode())
    return digest.hexdigest()


#: ``sharded_layers_digest`` recorded while every shard still ran as
#: its own ``MultiHopSampler.sample`` call: the one-pass expansion must
#: draw the same streams and charge the same accounting.
SHARDED_LAYER_DIGESTS = {
    "streaming": "7dfcbc962c9fae6d60e2b5287f145a4040eccff4b1df5d73941b06de00393930",
    "streaming_weighted": "0d7abe6c4ccd292b0cd30465082d91a6c071a0abc471a80763aabcdb8a5d5eeb",
    "uniform": "82a852be5c04bee649d5220a6a35712ccae75f7787e2f119a4b2714c18cc48d1",
    "weighted": "a833c75339a417a9af408827134cac427dd5f2eb913839e86fe31793cac3e5d4",
}


class TestOnePassShards:
    """``run_shards`` expands a process's shards in one pass; each
    task's layers and the summed accounting equal per-task calls."""

    @pytest.mark.parametrize("fanouts", [(5,), (4, 3), (3, 2, 2)])
    @pytest.mark.parametrize("selector", sorted(SELECTORS) + ["custom"])
    def test_equals_per_task_calls(self, selector, fanouts):
        graph = stream_graph()
        store = PartitionedStore(graph, HashPartitioner(4))
        selector = select_custom if selector == "custom" else SELECTORS[selector]
        degrees = np.diff(graph.indptr)
        isolated = int(np.flatnonzero(degrees == 0)[0])
        hub = int(np.argmax(degrees))
        rng = np.random.default_rng(4)
        task_roots = [
            rng.integers(0, graph.num_nodes, size=20),
            np.array([hub]),
            np.array([isolated, isolated, hub, 7, 7]),
            rng.integers(0, graph.num_nodes, size=9),
        ]
        tasks = [
            ShardTask(seq=5, shard=shard, roots=roots, fanouts=fanouts)
            for shard, roots in enumerate(task_roots)
        ]
        shadow = PartitionedStore(graph, store.partitioner)
        runtime = ShardRuntime(shadow, MultiHopSampler(shadow, selector=selector))
        layers, summary = runtime.run_shards(tasks, seed=11, worker_partition=0)

        expected = AccessSummary()
        for task, got in zip(tasks, layers):
            want, task_summary = run_shard_oracle(store, selector, task, 11, 0)
            assert len(got) == len(want) == len(fanouts)
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)
            expected.add(task_summary)
        assert summary == expected

    @pytest.mark.parametrize("selector_name", sorted(SELECTORS))
    def test_layers_digest_pinned(self, selector_name):
        assert sharded_layers_digest(selector_name) == SHARDED_LAYER_DIGESTS[selector_name]

    def test_one_neighbors_batch_per_hop(self):
        """A workers=0 micro-batch over every shard gathers adjacency
        once per hop, not once per shard per hop."""
        graph = make_graph()
        request = make_request(graph)
        calls = []
        with ParallelSampler(make_store(graph), workers=0, seed=3) as engine:
            engine.reserve(request.roots.size, FANOUTS)
            shadow = engine._inline.store
            inner = shadow.get_neighbors_batch

            def counted(*args, **kwargs):
                calls.append(len(args[0]))
                return inner(*args, **kwargs)

            shadow.get_neighbors_batch = counted
            engine.sample(request)
            owners = engine.store.partitioner.partition_of(request.roots)
        assert np.unique(owners).size == engine.num_shards
        assert len(calls) == len(FANOUTS)


class TestPipeline:
    def test_depth_validation(self):
        engine = ParallelSampler(make_store(make_graph()))
        with pytest.raises(ConfigurationError):
            PipelinedExecutor(engine, depth=0)
        engine.close()

    def test_micro_batches_validation(self):
        with pytest.raises(ConfigurationError):
            list(micro_batches(np.arange(4), 0, FANOUTS))

    @pytest.mark.parametrize("workers", [0, 2])
    def test_pipeline_matches_batch_by_batch(self, workers):
        graph = make_graph()
        roots = np.random.default_rng(5).integers(0, graph.num_nodes, size=120)
        requests = list(micro_batches(roots, 32, FANOUTS))
        assert len(requests) == 4
        assert requests[-1].roots.size == 24  # ragged tail preserved

        serial_store = make_store(graph)
        with ParallelSampler(serial_store, workers=0, seed=3) as engine:
            expected = [engine.sample(r) for r in requests]

        pipe_store = make_store(graph)
        with ParallelSampler(pipe_store, workers=workers, seed=3) as engine:
            got = PipelinedExecutor(engine, depth=2).run(requests)

        for mine, theirs in zip(expected, got):
            for a, b in zip(mine.layers, theirs.layers):
                np.testing.assert_array_equal(a, b)
        assert serial_store.summary == pipe_store.summary

    def test_compute_stage_runs_in_order(self):
        graph = make_graph()
        requests = list(micro_batches(np.arange(60), 20, FANOUTS))
        with ParallelSampler(make_store(graph), workers=0) as engine:
            sizes = PipelinedExecutor(engine, depth=2).run(
                requests, compute=lambda r: r.layers[0].size
            )
        assert sizes == [20, 20, 20]

    def test_single_slot_engine_still_completes(self):
        """Depth 1: every message is answered before the next is sent."""
        graph = make_graph()
        requests = list(micro_batches(np.arange(40), 10, FANOUTS))
        with ParallelSampler(make_store(graph), workers=1, seed=3) as engine:
            got = PipelinedExecutor(engine, depth=1).run(requests)
        assert len(got) == 4


class TestErrorPaths:
    def test_reserve_validates_then_starts_the_runtime(self):
        with ParallelSampler(make_store(make_graph()), workers=0) as engine:
            with pytest.raises(ConfigurationError):
                engine.reserve(0, FANOUTS)
            with pytest.raises(ConfigurationError):
                engine.reserve(8, (3, 0))
            engine.reserve(8, FANOUTS)
            assert engine._inline is not None

    def test_roots_out_of_range(self):
        graph = make_graph()
        engine = ParallelSampler(make_store(graph), workers=0)
        bad = SampleRequest(
            roots=np.array([graph.num_nodes + 5]), fanouts=FANOUTS
        )
        with pytest.raises(GraphError):
            engine.submit(bad)
        with pytest.raises(GraphError):
            engine.submit(
                SampleRequest(roots=np.array([-1]), fanouts=FANOUTS)
            )
        engine.close()

    def test_closed_engine_rejects_submit(self):
        engine = ParallelSampler(make_store(make_graph()), workers=0)
        engine.close()
        with pytest.raises(ParallelExecutionError):
            engine.submit(make_request(make_graph()))

    def test_collect_unknown_seq(self):
        engine = ParallelSampler(make_store(make_graph()), workers=0)
        with pytest.raises(ParallelExecutionError):
            engine.collect(99)
        engine.close()

    def test_dead_worker_detected(self):
        graph = make_graph()
        with ParallelSampler(make_store(graph), workers=1, seed=3) as engine:
            engine.sample(make_request(graph))  # pool is live
            for proc in engine._procs:
                proc.terminate()
                proc.join(timeout=5)
            seq = engine.submit(make_request(graph, seed=9))
            with pytest.raises(ParallelExecutionError):
                engine.collect(seq)

    def test_close_is_idempotent(self):
        engine = ParallelSampler(make_store(make_graph()), workers=1, seed=3)
        engine.sample(make_request(make_graph()))
        engine.close()
        engine.close()


def fail_shard(monkeypatch, seq: int, shard: int):
    """Make ``run_shards`` raise when the (seq, shard) task is among its
    tasks.

    Patched on the class before the pool starts, so forked shard
    workers inherit it.
    """
    real = ShardRuntime.run_shards

    def run_shards(self, tasks, seed, worker_partition):
        if (seq, shard) in [(task.seq, task.shard) for task in tasks]:
            raise RuntimeError("injected shard failure")
        return real(self, tasks, seed, worker_partition)

    monkeypatch.setattr(ShardRuntime, "run_shards", run_shards)


def shared_entries():
    """POSIX shared-memory segments (Python names them ``psm_*``) and
    ``repro-plane-*`` temp directories that exist right now: what a
    graph plane or result arena would leave behind."""
    found = set()
    for directory, prefix in (("/dev/shm", "psm_"), (tempfile.gettempdir(), "repro-plane-")):
        if os.path.isdir(directory):
            found.update(
                os.path.join(directory, name)
                for name in os.listdir(directory)
                if name.startswith(prefix)
            )
    return found


class TestShardFailure:
    """A failed shard must cost one micro-batch, never the engine."""

    @pytest.mark.parametrize("workers", [0, 1])
    def test_failed_batch_frees_its_slot(self, monkeypatch, workers):
        graph = make_graph()
        requests = [make_request(graph, seed=s) for s in (1, 2, 3)]
        with ParallelSampler(make_store(graph), workers=0, seed=3) as fresh:
            expected = [fresh.sample(r) for r in requests][1:]

        fail_shard(monkeypatch, seq=0, shard=1)
        before = shared_entries()
        engine = ParallelSampler(make_store(graph), workers=workers, seed=3)
        with engine:
            with pytest.raises(ParallelExecutionError, match="injected"):
                engine.sample(requests[0])
            # Checked before resubmitting: a leaked entry or a reply
            # still owed would stall the submits below.
            assert not engine._pending
            assert not any(seq is not None for seq in engine._awaiting)
            got = [engine.collect(engine.submit(r)) for r in requests[1:]]
            assert shared_entries() == before
        for mine, theirs in zip(got, expected):
            for a, b in zip(mine.layers, theirs.layers):
                np.testing.assert_array_equal(a, b)

    def test_failure_is_raised_by_its_own_batch(self, monkeypatch):
        """collect(1) reads seq 0's failure off the worker's pipe while
        it waits; that is seq 0's error to raise, not seq 1's."""
        graph = make_graph()
        fail_shard(monkeypatch, seq=0, shard=1)
        with ParallelSampler(make_store(graph), workers=1, seed=3) as engine:
            first = engine.submit(make_request(graph, seed=1))
            second = engine.submit(make_request(graph, seed=2))
            assert len(engine.collect(second).layers) == 1 + len(FANOUTS)
            with pytest.raises(ParallelExecutionError, match="injected"):
                engine.collect(first)
            assert not engine._pending


    @pytest.mark.parametrize("workers", [0, 1])
    def test_trainer_recovers_after_shard_failure(self, monkeypatch, workers):
        """A shard failure costs the epoch it hits, not the trainer:
        the next epoch on the same trainer runs through."""
        from repro.gnn.pipeline import PipelinedTrainer

        graph = make_graph()
        labels = np.zeros((graph.num_nodes, 2), dtype=np.float32)
        roots = np.arange(graph.num_nodes)
        # Before the trainer exists: its pool forks at construction.
        fail_shard(monkeypatch, seq=2, shard=1)
        with PipelinedTrainer(
            make_store(graph), labels, FANOUTS, workers=workers
        ) as trainer:
            with pytest.raises(ParallelExecutionError, match="injected"):
                trainer.train_epoch(roots)
            assert not trainer.engine._pending
            assert not trainer.executor._in_flight
            assert np.isfinite(trainer.train_epoch(roots))


def stall_batch(monkeypatch, seq: int):
    """Make ``run_shards`` hang on micro-batch ``seq`` until killed."""
    real = ShardRuntime.run_shards

    def run_shards(self, tasks, seed, worker_partition):
        if tasks[0].seq == seq:
            time.sleep(60)
        return real(self, tasks, seed, worker_partition)

    monkeypatch.setattr(ShardRuntime, "run_shards", run_shards)


class TestDeadWorker:
    """A dead worker surfaces as ``ParallelExecutionError`` — never as a
    ``BrokenPipeError`` or ``EOFError`` — and ``close()`` still reaps
    every worker."""

    def test_killed_between_batches(self):
        graph = make_graph()
        before = shared_entries()
        with ParallelSampler(make_store(graph), workers=2, seed=3) as engine:
            engine.sample(make_request(graph))
            # The graph and the layers travel by fork and pipe: a live
            # pool holds no shared-memory segment or mapped file.
            assert shared_entries() == before
            victim = engine._procs[1]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=5)
            assert not victim.is_alive()
            for seed in (9, 10):
                with pytest.raises(ParallelExecutionError):
                    engine.collect(engine.submit(make_request(graph, seed=seed)))
            procs = list(engine._procs)
        assert not [proc for proc in procs if proc.is_alive()]

    def test_killed_while_collect_waits(self, monkeypatch):
        """The dead worker's pipe reads EOF at once: no waiting out a
        liveness poll."""
        stall_batch(monkeypatch, seq=1)
        graph = make_graph()
        with ParallelSampler(make_store(graph), workers=1, seed=3) as engine:
            engine.sample(make_request(graph))
            seq = engine.submit(make_request(graph, seed=9))
            killer = threading.Timer(
                0.2, os.kill, (engine._procs[0].pid, signal.SIGKILL)
            )
            start = time.monotonic()
            killer.start()
            try:
                with pytest.raises(ParallelExecutionError, match="died"):
                    engine.collect(seq)
            finally:
                killer.join(timeout=5)
            assert time.monotonic() - start < DONE_POLL_S
            procs = list(engine._procs)
        assert not [proc for proc in procs if proc.is_alive()]


def large_requests(graph, count):
    """Structure-only one-hop batches of 100k roots: about 400 kB of
    roots each way per worker of two, more than a Unix socket buffers
    (about 200 kB on Linux)."""
    rng = np.random.default_rng(8)
    return [
        SampleRequest(
            roots=rng.integers(0, graph.num_nodes, size=100_000),
            fanouts=(1,),
            with_attributes=False,
        )
        for _ in range(count)
    ]


class TestTransport:
    """Tasks and layers travel in the pipe messages themselves, so each
    worker has at most one unanswered message: with two, a task and a
    reply that each outgrow the socket buffer block both sides."""

    def test_depth_two_stream_with_large_messages(self):
        graph = make_graph()
        requests = large_requests(graph, 3)
        with ParallelSampler(make_store(graph), workers=0, seed=3) as engine:
            expected = [engine.sample(r) for r in requests]
        got = []
        with ParallelSampler(make_store(graph), workers=2, seed=3) as engine:
            executor = PipelinedExecutor(engine, depth=2)
            # In a thread, so a deadlock fails the test instead of
            # hanging it; close() then ends the blocked send.
            runner = threading.Thread(
                target=lambda: got.extend(executor.run(requests)), daemon=True
            )
            runner.start()
            runner.join(timeout=30)
            assert not runner.is_alive(), "depth-2 stream deadlocked"
        assert len(got) == len(expected)
        for mine, theirs in zip(expected, got):
            for a, b in zip(mine.layers, theirs.layers):
                np.testing.assert_array_equal(a, b)

    def test_close_with_large_reply_in_flight(self):
        """A worker blocked sending a reply nobody will read is not
        waited for."""
        graph = make_graph()
        engine = ParallelSampler(make_store(graph), workers=1, seed=3)
        engine.sample(make_request(graph))  # pool is live
        engine.submit(large_requests(graph, 1)[0])
        time.sleep(0.3)  # the worker is now blocked mid-reply
        procs = list(engine._procs)
        start = time.monotonic()
        engine.close()
        assert time.monotonic() - start < 2.0
        assert not [proc for proc in procs if proc.is_alive()]


class TestGnnSessionIntegration:
    def test_session_workers_round_trip(self):
        from repro.api import GnnSession

        # workers=0 selects the legacy serial sampler (a different RNG
        # consumption order), so determinism is asserted between two
        # parallel worker counts.
        graph = make_graph()
        results = []
        for workers in (1, 2):
            with GnnSession(
                graph, num_partitions=4, seed=0, workers=workers
            ) as session:
                roots = np.arange(24, dtype=np.int64)
                results.append(session.sample(roots, fanouts=FANOUTS))
        for mine, theirs in zip(results[0].layers, results[1].layers):
            np.testing.assert_array_equal(mine, theirs)
