"""Tests for repro.gnn.pipeline: the pipelined sample→train engine.

The load-bearing bar is the determinism contract: epoch losses, the
weights digest, and the store's access summary are bit-identical at
every worker count, with and without the neighborhood cache. The
``workers=0`` inline run is the reference the process pools are
compared against.
"""

from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

import repro.gnn.embedding as embedding_module
from repro.api import GnnSession
from repro.errors import ConfigurationError, ParallelExecutionError
from repro.framework.requests import SampleRequest
from repro.graph.datasets import instantiate_dataset
from repro.graph.dynamic import DynamicGraph
from repro.graph.generators import power_law_graph
from repro.graph.partition import HashPartitioner
from repro.gnn.pipeline import (
    NeighborhoodCache,
    PipelinedTrainer,
    TrainReport,
)
from repro.gnn.train import multilabel_loss64
from repro.memstore.store import PartitionedStore
import repro.parallel.pipeline as pipeline_module
from repro.parallel import ParallelSampler, PipelinedExecutor
from tests.test_gnn_models import as_float64

NUM_NODES = 300
FANOUTS = (4, 3)
NUM_LABELS = 4


def make_graph(seed: int = 0):
    return instantiate_dataset("ss", max_nodes=NUM_NODES, seed=seed)


def make_store(graph, partitions: int = 4):
    return PartitionedStore(graph, HashPartitioner(partitions))


def make_labels(graph, seed: int = 0):
    rng = np.random.default_rng(seed)
    return (rng.random((graph.num_nodes, NUM_LABELS)) < 0.3).astype(
        np.float32
    )


def run_trainer(
    workers, roots=None, cached_epochs=0, epochs=3, seed=0, features="embedding"
):
    graph = make_graph()
    store = make_store(graph)
    labels = make_labels(graph)
    if roots is None:
        roots = np.arange(graph.num_nodes)
    with PipelinedTrainer(
        store,
        labels,
        FANOUTS,
        seed=seed,
        workers=workers,
        batch_size=32,
        cached_epochs=cached_epochs,
        features=features,
    ) as trainer:
        report = trainer.train(np.asarray(roots), epochs=epochs)
    return report, store.summary


class TestNeighborhoodCache:
    def _fake_result(self, roots):
        """A SampleResult stand-in with FANOUTS-shaped hop layers whose
        values encode (root, hop, slot) so reconstruction is checkable."""
        roots = np.asarray(roots, dtype=np.int64)
        layers = [roots]
        width = 1
        for hop, fanout in enumerate(FANOUTS, start=1):
            width *= fanout
            layer = (
                roots[:, None] * 1000
                + hop * 100
                + np.arange(width)[None, :]
            )
            layers.append(layer.astype(np.int64))
        return SimpleNamespace(layers=layers)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            NeighborhoodCache(0)

    def test_probe_counts_every_occurrence(self):
        cache = NeighborhoodCache(2)
        cache.begin_epoch(0, FANOUTS, "uniform", 0, trained_epochs=0)
        hits = cache.probe(np.array([7, 7, 9]))
        assert not hits.any()
        assert (cache.root_hits, cache.root_misses) == (0, 3)
        cache.insert(np.array([7, 9]), self._fake_result([7, 9]))
        hits = cache.probe(np.array([7, 7, 9, 11]))
        assert hits.tolist() == [True, True, True, False]
        assert (cache.root_hits, cache.root_misses) == (3, 4)

    def test_assemble_reconstructs_layers(self):
        cache = NeighborhoodCache(2)
        cache.begin_epoch(0, FANOUTS, "uniform", 0, trained_epochs=0)
        cache.insert(np.array([3, 5]), self._fake_result([3, 5]))
        # assemble in a different order / with duplicates
        expected = self._fake_result([5, 3, 5]).layers
        layers = cache.assemble(np.array([5, 3, 5]), FANOUTS)
        assert len(layers) == len(expected)
        for got, want in zip(layers, expected):
            np.testing.assert_array_equal(got, want)

    def test_first_insert_wins(self):
        cache = NeighborhoodCache(2)
        cache.begin_epoch(0, FANOUTS, "uniform", 0, trained_epochs=0)
        first = self._fake_result([4])
        cache.insert(np.array([4]), first)
        other = self._fake_result([4])
        other.layers = [layer + 1 for layer in other.layers]
        cache.insert(np.array([4]), other)
        layers = cache.assemble(np.array([4]), FANOUTS)
        np.testing.assert_array_equal(layers[1], first.layers[1])

    def test_fingerprint_change_clears(self):
        cache = NeighborhoodCache(2)
        cache.begin_epoch(0, FANOUTS, "uniform", 0, trained_epochs=0)
        cache.insert(np.array([1]), self._fake_result([1]))
        assert len(cache) == 1
        # same fingerprint (epoch 1, generation 1 // 2 == 0): kept
        cache.begin_epoch(0, FANOUTS, "uniform", 0, trained_epochs=1)
        assert len(cache) == 1
        # graph epoch moved: cleared
        cache.begin_epoch(1, FANOUTS, "uniform", 0, trained_epochs=1)
        assert len(cache) == 0

    def test_generation_rolls_every_cached_epochs(self):
        cache = NeighborhoodCache(2)
        cache.begin_epoch(0, FANOUTS, "uniform", 0, trained_epochs=0)
        cache.insert(np.array([1]), self._fake_result([1]))
        # trained_epochs=2 -> generation 1: re-sample
        cache.begin_epoch(0, FANOUTS, "uniform", 0, trained_epochs=2)
        assert len(cache) == 0

    def test_seed_change_clears(self):
        cache = NeighborhoodCache(3)
        cache.begin_epoch(0, FANOUTS, "uniform", 0, trained_epochs=0)
        cache.insert(np.array([1]), self._fake_result([1]))
        cache.begin_epoch(0, FANOUTS, "uniform", 1, trained_epochs=0)
        assert len(cache) == 0


class TestPipelinedTrainerParity:
    def test_workers_parity_uncached(self):
        ref_report, ref_summary = run_trainer(workers=0)
        par_report, par_summary = run_trainer(workers=2)
        assert par_report.epoch_losses == ref_report.epoch_losses
        assert par_report.weights_digest == ref_report.weights_digest
        assert par_summary == ref_summary
        assert ref_summary.neighborhood_hits == 0
        assert ref_summary.neighborhood_misses == 0

    def test_workers_parity_cached(self):
        ref_report, ref_summary = run_trainer(workers=0, cached_epochs=3)
        par_report, par_summary = run_trainer(workers=2, cached_epochs=3)
        assert par_report.epoch_losses == ref_report.epoch_losses
        assert par_report.weights_digest == ref_report.weights_digest
        assert par_summary == ref_summary
        # 3 epochs x 300 roots, miss epoch then two cached epochs
        assert ref_report.cache_misses == NUM_NODES
        assert ref_report.cache_hits == 2 * NUM_NODES
        assert ref_summary.neighborhood_hits == ref_report.cache_hits
        assert ref_summary.neighborhood_misses == ref_report.cache_misses

    def test_duplicate_root_batches_parity(self):
        """Micro-batches with repeated roots still match workers=0
        bit for bit (the occurrence-order scatter-add contract)."""
        rng = np.random.default_rng(11)
        roots = rng.integers(0, NUM_NODES, size=200)
        assert len(np.unique(roots)) < roots.size  # really has duplicates
        for cached in (0, 2):
            ref, ref_sum = run_trainer(
                workers=0, roots=roots, cached_epochs=cached, epochs=2
            )
            par, par_sum = run_trainer(
                workers=2, roots=roots, cached_epochs=cached, epochs=2
            )
            assert par.epoch_losses == ref.epoch_losses
            assert par.weights_digest == ref.weights_digest
            assert par_sum == ref_sum

    @pytest.mark.parametrize("cached_epochs", (0, 3))
    def test_attributes_workers_parity(self, cached_epochs):
        """The attribute feature source meets the same bar: losses,
        digest and summary (attribute gathers included) at workers 2
        equal the inline run, cached and uncached."""
        ref, ref_sum = run_trainer(
            workers=0, cached_epochs=cached_epochs, features="attributes"
        )
        par, par_sum = run_trainer(
            workers=2, cached_epochs=cached_epochs, features="attributes"
        )
        assert par.epoch_losses == ref.epoch_losses
        assert par.weights_digest == ref.weights_digest
        assert par_sum == ref_sum
        assert ref_sum.attribute_count > 0  # the trainer's gathers: requests are ID-only

    def test_repeat_runs_bit_identical(self):
        """Same seed, same worker count: every artifact is bitwise
        reproducible, cached or not."""
        for cached in (0, 3):
            a, a_sum = run_trainer(workers=0, cached_epochs=cached)
            b, b_sum = run_trainer(workers=0, cached_epochs=cached)
            assert a.epoch_losses == b.epoch_losses
            assert a.weights_digest == b.weights_digest
            assert a_sum == b_sum


class TestPipelinedTrainerBehavior:
    def test_report_accounting(self):
        report, _ = run_trainer(workers=0, epochs=2)
        assert isinstance(report, TrainReport)
        assert report.epochs == 2
        batches_per_epoch = -(-NUM_NODES // 32)
        assert report.micro_batches == 2 * batches_per_epoch
        assert report.samples == 2 * NUM_NODES
        assert len(report.epoch_losses) == 2
        assert report.final_loss == report.epoch_losses[-1]
        assert len(report.weights_digest) == 64

    def test_report_counts_are_per_call(self):
        """A second ``train`` on the same trainer reports its own work,
        not the trainer's lifetime totals."""
        graph = make_graph()
        roots = np.arange(NUM_NODES)
        with PipelinedTrainer(
            make_store(graph),
            make_labels(graph),
            FANOUTS,
            batch_size=50,
            cached_epochs=5,
        ) as trainer:
            first = trainer.train(roots, epochs=1)
            second = trainer.train(roots, epochs=1)
        for report in (first, second):
            assert (report.epochs, report.micro_batches, report.samples) == (
                1,
                6,
                NUM_NODES,
            )
        assert (first.cache_hits, first.cache_misses) == (0, NUM_NODES)
        assert (second.cache_hits, second.cache_misses) == (NUM_NODES, 0)

    def test_loss_decreases(self):
        report, _ = run_trainer(workers=0, epochs=6)
        assert report.epoch_losses[-1] < report.epoch_losses[0]

    def test_deeper_pipeline_is_bit_identical(self):
        # On a worker pool: the inline engine runs windows, not depth.
        graph = make_graph()
        labels = make_labels(graph)
        digests = []
        for depth in (1, 2, 4):
            store = make_store(graph)
            with PipelinedTrainer(
                store, labels, FANOUTS, seed=0, workers=1, pipeline_depth=depth
            ) as trainer:
                report = trainer.train(np.arange(NUM_NODES), epochs=2)
            digests.append((tuple(report.epoch_losses), report.weights_digest))
        assert digests[0] == digests[1] == digests[2]

    def test_run_ahead_leaves_cached_duplicates_bit_identical(self, monkeypatch):
        """How far sampling runs ahead of training — one batch, the
        inline window, a whole epoch, or pool depths 1 and 4 — moves no
        cache probe outcome, so repeated roots train bit-identically."""
        roots = np.random.default_rng(11).integers(0, NUM_NODES, size=200)
        runs = []
        for window in (1, pipeline_module.INLINE_WINDOW_POSITIONS, 2**30):
            monkeypatch.setattr(pipeline_module, "INLINE_WINDOW_POSITIONS", window)
            runs.append(run_trainer(workers=0, roots=roots, cached_epochs=2, epochs=2))
        monkeypatch.undo()
        for depth in (1, 4):
            graph = make_graph()
            store = make_store(graph)
            with PipelinedTrainer(
                store,
                make_labels(graph),
                FANOUTS,
                workers=1,
                pipeline_depth=depth,
                batch_size=32,
                cached_epochs=2,
            ) as trainer:
                runs.append((trainer.train(roots, epochs=2), store.summary))
        first, first_summary = runs[0]
        # Misses come from the first epoch only: a root repeated in a
        # later batch of it is already a hit.
        assert first.cache_hits + first.cache_misses == 2 * roots.size
        assert np.unique(roots).size <= first.cache_misses < roots.size
        for report, summary in runs[1:]:
            assert report.epoch_losses == first.epoch_losses
            assert report.weights_digest == first.weights_digest
            assert summary == first_summary

    def test_validation(self):
        graph = make_graph()
        store = make_store(graph)
        labels = make_labels(graph)
        with pytest.raises(ConfigurationError):
            PipelinedTrainer(store, labels[:-1], FANOUTS)
        with pytest.raises(ConfigurationError):
            PipelinedTrainer(store, labels, FANOUTS, batch_size=0)
        with pytest.raises(ConfigurationError):
            PipelinedTrainer(store, labels, FANOUTS, lr=0.0)
        with pytest.raises(ConfigurationError):
            PipelinedTrainer(store, labels, FANOUTS, cached_epochs=-1)
        with PipelinedTrainer(store, labels, FANOUTS) as trainer:
            with pytest.raises(ConfigurationError):
                trainer.train(np.arange(10), epochs=0)
            with pytest.raises(ConfigurationError):
                trainer.train(np.array([], dtype=np.int64))


def test_step_call_counts(monkeypatch):
    """One micro-batch enters each stage once — counted the way
    ``bench/spans.py`` times them, by shadowing the bound methods with
    instance attributes *after* construction. Per-layer or per-shard
    calls creeping back, or a stage captured as a bound method where a
    shadow cannot reach it, fail here instead of skewing the traced
    per-layer split."""
    calls = Counter()

    def shadow(obj, attr, name):
        inner = getattr(obj, attr)

        def counted(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        setattr(obj, attr, counted)

    class CountingNumpy:
        """``np`` as the embedding module sees it, counting dedups."""

        def __getattr__(self, name):
            if name == "unique":
                calls["table.dedup"] += 1
            return getattr(np, name)

    graph = make_graph()
    roots = np.arange(NUM_NODES)
    with PipelinedTrainer(
        make_store(graph),
        make_labels(graph),
        FANOUTS,
        batch_size=32,
        cached_epochs=5,
    ) as trainer:
        trainer.train_epoch(roots)  # fills the cache
        for attr in ("lookup", "accumulate_grad", "step"):
            shadow(trainer.embeddings, attr, f"embeddings.{attr}")
        shadow(trainer.encoder, "forward_backward", "encoder.forward_backward")
        for attr in ("probe", "insert", "assemble"):
            shadow(trainer.cache, attr, f"cache.{attr}")
        shadow(trainer.engine, "submit", "engine.submit")
        for layer in trainer.encoder.layers:
            shadow(layer, "forward", "sage.forward")
        monkeypatch.setattr(embedding_module, "np", CountingNumpy())
        assert not hasattr(embedding_module, "dedup_ids")
        denses = trainer.encoder.dense_layers() + [trainer.head]
        buffers = [(dense.grad_weight, dense.grad_bias) for dense in denses]
        trainer.train_epoch(roots)  # every micro-batch served from it
        # Gradient buffers are allocated once and cleared in place.
        for dense, (grad_weight, grad_bias) in zip(denses, buffers):
            assert dense.grad_weight is grad_weight
            assert dense.grad_bias is grad_bias

    batches = -(-NUM_NODES // 32)
    hops = len(FANOUTS)
    assert calls.pop("table.dedup") <= batches
    assert calls == {
        "embeddings.lookup": batches,
        "embeddings.accumulate_grad": batches,
        "embeddings.step": batches,
        "encoder.forward_backward": batches,
        "cache.probe": batches,
        "cache.assemble": batches,
        "sage.forward": batches * hops,
    }


#: ``weights_digest`` and epoch losses (as ``float.hex``) of a
#: train_fresh-shaped run — power_law_graph(800, 8), fanouts (4,3),
#: batches of 64, dims 16/16, 2 epochs, seed 0 — recorded while every
#: inline micro-batch was still expanded on its own at submit.
GOLDEN_TRAIN = (
    "a0c6c87cee5903085c651671a79cb8bcaf525fe077ae125db69b52dd59e8e5ce",
    ["0x1.6e285eb3eef74p-1", "0x1.64664d48d4cafp-1"],
)


def test_train_fresh_shaped_golden():
    graph = power_law_graph(800, 8, attr_len=0, seed=0)
    labels = (np.random.default_rng(0).random((800, 8)) < 0.3).astype(np.float32)
    with PipelinedTrainer(
        PartitionedStore(graph, HashPartitioner(4)),
        labels,
        FANOUTS,
        embedding_dim=16,
        hidden_dim=16,
        seed=0,
        batch_size=64,
    ) as trainer:
        report = trainer.train(np.arange(800), epochs=2)
    assert report.micro_batches == 26
    assert (
        report.weights_digest,
        [loss.hex() for loss in report.epoch_losses],
    ) == GOLDEN_TRAIN


def test_float32_losses_track_float64_reference():
    """A train_fresh-shaped run (power-law graph, fanouts (4,3), dims
    16/16, batches of 64, 3 epochs) against the same run with every
    parameter, the embedding table and the loss gradient in float64
    (``multilabel_loss64``): same shuffles, same neighbourhoods, same
    stacked step. The float32 epoch losses agree to 1e-6 relative
    (measured: under 1e-8)."""
    graph = power_law_graph(800, 8, attr_len=0, seed=0)
    labels = (np.random.default_rng(0).random((800, 8)) < 0.3).astype(np.float32)
    roots = np.arange(800)

    def trainer():
        return PipelinedTrainer(
            PartitionedStore(graph, HashPartitioner(4)),
            labels,
            FANOUTS,
            embedding_dim=16,
            hidden_dim=16,
            batch_size=64,
        )

    with trainer() as fp32:
        losses32 = fp32.train(roots, epochs=3).epoch_losses
    with trainer() as ref:
        as_float64(ref.encoder.dense_layers() + [ref.head])
        table = ref.embeddings.to_dense().astype(np.float64)

        def step64(layers, batch_labels):
            nodes = ref.encoder.stack(layers)

            def grad_fn(embeddings):
                logits = ref.head.forward(embeddings)
                loss, grad = multilabel_loss64(logits, batch_labels)
                return loss, ref.head.backward(grad)

            _, loss = ref.encoder.forward_backward(table[nodes], grad_fn)
            grad = np.zeros_like(table)
            np.add.at(grad, nodes, ref.encoder.input_gradients)
            table[...] -= ref.lr * grad
            ref.head.step(ref.lr)
            ref.encoder.step(ref.lr)
            return loss

        ref._train_step = step64
        losses64 = ref.train(roots, epochs=3).epoch_losses
    assert losses32 != losses64  # really two precisions
    np.testing.assert_allclose(losses32, losses64, rtol=1e-6, atol=0)
    assert losses32[-1] < losses32[0]


class TestDrainOnComputeError:
    def _executor(self, store, depth=4):
        engine = ParallelSampler(store, workers=0, seed=3)
        return engine, PipelinedExecutor(engine, depth=depth)

    def _requests(self, count, batch=16):
        rng = np.random.default_rng(5)
        for _ in range(count):
            yield SampleRequest(
                roots=rng.integers(0, NUM_NODES, size=batch),
                fanouts=FANOUTS,
                with_attributes=False,
            )

    def test_compute_error_drains_in_flight(self):
        """A failing compute stage must flush the pipeline: no batch is
        left pending and the executor stays usable."""
        store = make_store(make_graph())
        engine, executor = self._executor(store)
        seen = []

        def compute(result):
            seen.append(result)
            if len(seen) == 2:
                raise RuntimeError("injected compute failure")
            return result

        with engine:
            with pytest.raises(RuntimeError, match="injected"):
                list(executor.stream(self._requests(8), compute))
            assert len(seen) == 2
            assert executor.drain_failures == 0
            # every in-flight batch was flushed: a full-depth run fits again
            results = executor.run(self._requests(6))
            assert len(results) == 6

    def test_generator_close_drains(self):
        store = make_store(make_graph())
        engine, executor = self._executor(store)
        with engine:
            stream = executor.stream(self._requests(8))
            next(stream)
            stream.close()
            assert not executor._in_flight
            assert len(executor.run(self._requests(6))) == 6

    def test_one_stream_at_a_time(self):
        store = make_store(make_graph())
        engine, executor = self._executor(store)
        with engine:
            first = executor.stream(self._requests(8))
            next(first)  # pipeline now holds in-flight micro-batches
            second = executor.stream(self._requests(2))
            with pytest.raises(ParallelExecutionError, match="one stream"):
                next(second)
            first.close()

    def test_discard_unknown_seq_rejected(self):
        store = make_store(make_graph())
        with ParallelSampler(store, workers=0, seed=3) as engine:
            with pytest.raises(ParallelExecutionError):
                engine.discard(99)


class TestGnnSessionTrain:
    def test_session_train_matches_trainer(self):
        graph = make_graph()
        labels = make_labels(graph)
        with GnnSession(graph, num_partitions=4, seed=0) as session:
            report = session.train(labels, FANOUTS, epochs=2)
        ref, _ = run_trainer(workers=0, epochs=2)
        assert report.epoch_losses == ref.epoch_losses
        assert report.weights_digest == ref.weights_digest

    def test_session_train_rejects_dynamic(self):
        graph = make_graph()
        labels = make_labels(graph)
        with GnnSession(DynamicGraph(graph), num_partitions=2) as session:
            with pytest.raises(ConfigurationError, match="static"):
                session.train(labels, FANOUTS)
