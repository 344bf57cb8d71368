"""User-facing programming interface (the Section 5 software stack).

The paper exposes "various levels of programming interface": (1) ISA
level (RISC-V/QRCH — :mod:`repro.riscv`), (2) accelerator operator
level (CSR access), (3) GNN operator level (n-hop sampling, attribute
reads, negative sampling), and (4) fixed model APIs (graphSAGE),
all integrated behind the framework interface. :class:`GnnSession`
bundles levels 2-4 over one graph, dispatching to the software sampler
or the AxE hardware model.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.axe.commands import Command, CommandKind, sample_command
from repro.axe.engine import AxeEngine, EngineConfig
from repro.framework.cache import HotNodeCache
from repro.framework.requests import (
    NegativeSampleRequest,
    SampleRequest,
    SampleResult,
)
from repro.framework.sampler import MultiHopSampler
from repro.framework.selectors import get_selector
from repro.graph.csr import CSRGraph
from repro.graph.dynamic import DynamicGraph
from repro.graph.partition import HashPartitioner
from repro.gnn.models import GraphSageEncoder
from repro.gnn.pipeline import PipelinedTrainer, TrainReport
from repro.gnn.train import Trainer
from repro.memstore.faults import ReliableReadPath
from repro.memstore.ingest import DynamicPartitionedStore, Mutation, growth_trace
from repro.memstore.locality import build_locality_layout
from repro.memstore.store import PartitionedStore
from repro.parallel.engine import ParallelSampler
from repro.serving.backends import HardwareBackend, SoftwareBackend
from repro.serving.gateway import GatewayConfig, serve_workload
from repro.serving.metrics import ServingReport
from repro.serving.workload import TenantSpec, default_tenants

if TYPE_CHECKING:
    from repro.cluster.report import ClusterReport
    from repro.cluster.sim import ClusterConfig
    from repro.cluster.trace import TraceConfig


class GnnSession:
    """One graph, every programming level above the ISA.

    ``layout``, ``workers`` and ``cache_nodes`` compose behind one
    sampler contract, original node IDs in and out. Two rules remain: a
    :class:`~repro.graph.dynamic.DynamicGraph` runs the inline software
    sampler only (no ``layout``, ``workers`` or ``reliability``), and
    :class:`~repro.parallel.ParallelSampler` refuses a ``reliability``
    store (shard workers run the zero-fault path).

    Parameters
    ----------
    graph:
        The graph to serve.
    num_partitions:
        Logical shards (servers/FPGA nodes).
    engine_config:
        AxE configuration for the hardware path; ``None`` uses the PoC
        defaults with ``num_partitions`` FPGA nodes.
    sampling_method:
        "uniform" (software default) or "streaming" (the hardware's
        step-based method).
    cache_nodes:
        Optional hot-node cache capacity for the software path.
    reliability:
        Optional fault-tolerant remote-read path
        (:class:`~repro.memstore.faults.ReliableReadPath`) threaded
        into the store. When set, the software sampler runs with
        degraded completion enabled so a dead shard costs data quality
        (self-loop / zero-row fallbacks), not the run.
    batched:
        Selects nothing: the software sampler has one (vectorized)
        path. Accepted only because the frozen ``bench/`` still spells
        ``batched=True``; ``False`` raises.
    workers:
        Shard worker processes for the parallel execution engine
        (:class:`~repro.parallel.ParallelSampler`). ``0`` (the
        default) keeps the single-process sampler. Any ``workers >= 1``
        replaces the software sampler with the sharded engine —
        results and access accounting are bit-identical at every
        worker count, including the in-process reference. With
        ``cache_nodes`` the cache fronts the coordinator's reads
        (attribute gather, negative sampling); shard-side structure
        reads stay uncached. Call :meth:`close` (or use the session as
        a context manager) to shut the pool down.
    layout:
        Locality-preserving physical layout for the store: ``"ldg"``,
        ``"hash"``, or ``"range"`` (see
        :func:`~repro.memstore.locality.build_locality_layout`). The
        graph is renumbered partition-block-contiguous with hot
        high-degree nodes front-loaded, and the store maps IDs at its
        boundary, so callers keep speaking original IDs. ``None``
        (the default) keeps the historical hash layout bit-for-bit.
    """

    def __init__(
        self,
        graph: Union[CSRGraph, DynamicGraph],
        num_partitions: int = 4,
        engine_config: Optional[EngineConfig] = None,
        sampling_method: str = "uniform",
        cache_nodes: int = 0,
        seed: int = 0,
        reliability: Optional["ReliableReadPath"] = None,
        batched: bool = True,
        workers: int = 0,
        layout: Optional[str] = None,
    ) -> None:
        if cache_nodes < 0:
            raise ConfigurationError(
                f"cache_nodes must be non-negative, got {cache_nodes}"
            )
        if workers < 0:
            raise ConfigurationError(f"workers must be >= 0, got {workers}")
        if not batched:
            raise ConfigurationError(
                "the software sampler has one (vectorized) path; the per-node "
                "walk is the oracle repro.framework.replay.ReferenceWalkSampler"
            )
        self.graph = graph
        self.layout = layout
        #: The mutable graph when the session is dynamic, else ``None``.
        self.dynamic: Optional[DynamicGraph] = (
            graph if isinstance(graph, DynamicGraph) else None
        )
        if self.dynamic is not None:
            given = {
                "layout": layout is not None,
                "workers": workers > 0,
                "reliability": reliability is not None,
            }
            if any(given.values()):
                refused = ", ".join(name for name in given if given[name])
                raise ConfigurationError(
                    f"{refused} cannot be combined with a "
                    "DynamicGraph: a mutable graph runs the inline software "
                    "sampler only (layout renumbers, shard workers attach, "
                    "and replicas and the AxE model serve, an immutable CSR)"
                )
            self.store: PartitionedStore = DynamicPartitionedStore(
                self.dynamic, HashPartitioner(num_partitions)
            )
        else:
            stored, partitioner, relabeling = graph, HashPartitioner(num_partitions), None
            if layout is not None:
                built = build_locality_layout(graph, num_partitions, method=layout)
                stored, partitioner, relabeling = (
                    built.graph, built.partitioner, built.relabeling
                )
            self.store = PartitionedStore(
                stored, partitioner, reliability=reliability, relabeling=relabeling
            )
        self.workers = workers
        cache = HotNodeCache(cache_nodes) if cache_nodes else None
        if cache is not None and self.dynamic is not None:
            # Mutated nodes must drop out of the cache, or samples
            # pinned to a fresh epoch would read pre-mutation data.
            self.store.register_cache(cache)
        if workers > 0:
            self.sampler: MultiHopSampler = ParallelSampler(
                self.store,
                workers=workers,
                seed=seed,
                sampling_method=sampling_method,
                cache=cache,
            )
        else:
            self.sampler = MultiHopSampler(
                self.store,
                seed=seed,
                cache=cache,
                selector=get_selector(sampling_method),
                degraded_ok=reliability is not None,
            )
        if engine_config is None:
            engine_config = EngineConfig(
                num_cores=2,
                num_fpga_nodes=max(1, num_partitions),
                seed=seed,
            )
        # The AxE model operates on an immutable CSR; for a dynamic
        # session it sees the base snapshot taken at construction and
        # is excluded from serve() unless explicitly requested.
        engine_graph = graph.base if self.dynamic is not None else graph
        self.engine = AxeEngine(engine_graph, engine_config)
        self._seed = seed
        self._sampling_method = sampling_method

    @property
    def relabeling(self):
        """The store's ID bijection when a locality layout is active,
        else ``None``."""
        return self.store.relabeling

    # -------------------------------------------------------- mutation level
    def mutate(self, mutations: Sequence[Mutation]) -> int:
        """Apply a batch of online mutations (dynamic sessions only).

        Returns the number applied. Concurrent with reads: an in-flight
        ``sample()`` keeps its pinned epoch; the next sample observes
        the new one.
        """
        if self.dynamic is None:
            raise ConfigurationError(
                "mutate() requires a session built over a DynamicGraph"
            )
        return self.store.apply(mutations)

    # --------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Release session resources (the shard worker processes)."""
        self.sampler.close()

    def __enter__(self) -> "GnnSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------ accelerator operator level
    def set_csr(self, index: int, value: int) -> None:
        """Write an accelerator control/status register."""
        self.engine.run(
            Command(kind=CommandKind.SET_CSR, csr_index=index, csr_value=value)
        )

    def read_csr(self, index: int) -> int:
        """Read an accelerator control/status register."""
        value, _stats = self.engine.run(
            Command(kind=CommandKind.READ_CSR, csr_index=index)
        )
        return value

    # -------------------------------------------------- GNN operator level
    def sample(
        self,
        roots: np.ndarray,
        fanouts: Tuple[int, ...],
        with_attributes: bool = True,
    ) -> SampleResult:
        """Software n-hop sampling (the AliGraph path)."""
        request = SampleRequest(
            roots=np.asarray(roots, dtype=np.int64),
            fanouts=tuple(fanouts),
            with_attributes=with_attributes,
        )
        return self.sampler.sample(request)

    def sample_hw(
        self,
        roots: np.ndarray,
        fanouts: Tuple[int, ...],
        method: str = "streaming",
    ):
        """Hardware n-hop sampling on the AxE model.

        Returns ``(per_root_layers, EngineStats)``.
        """
        return self.engine.run(
            sample_command(
                np.asarray(roots, dtype=np.int64), tuple(fanouts), method=method
            )
        )

    def read_node_attributes(self, nodes: np.ndarray) -> np.ndarray:
        """Hardware attribute gather (Table 4's read node attribute)."""
        values, _stats = self.engine.run(
            Command(
                kind=CommandKind.READ_NODE_ATTRIBUTE,
                nodes=np.asarray(nodes, dtype=np.int64),
            )
        )
        return values

    def negative_sample(self, pairs: np.ndarray, rate: int) -> np.ndarray:
        """Software negative sampling (non-neighbors per pair)."""
        request = NegativeSampleRequest(
            pairs=np.asarray(pairs, dtype=np.int64), rate=rate
        )
        return self.sampler.negative_sample(request)

    # ------------------------------------------------------- serving level
    def serve(
        self,
        tenants: Optional[Sequence[TenantSpec]] = None,
        duration_s: float = 0.5,
        config: Optional[GatewayConfig] = None,
        functional: bool = True,
        include_hardware: Optional[bool] = None,
        fail_hardware_at_s: Optional[float] = None,
        seed: Optional[int] = None,
        mutations: Optional[Sequence[Mutation]] = None,
        mutation_rate: float = 0.0,
    ) -> ServingReport:
        """Serve an open-loop multi-tenant workload over this session.

        Wraps this session's software sampler and AxE engine as serving
        backends (hardware preferred, software as fallback/overflow)
        behind the admission-controlled gateway, generates the tenants'
        Poisson arrival streams, and replays them to completion.

        Parameters
        ----------
        tenants:
            Traffic sources; ``None`` uses the three default tenants.
        duration_s:
            Arrival window in virtual seconds (the run drains fully).
        functional:
            Execute real sampling per micro-batch; ``False`` is
            timing-only (calibrated models) for load studies.
        include_hardware:
            Also offer the AxE engine as the preferred backend.
            ``None`` (the default) resolves to ``True`` for static
            sessions and ``False`` for dynamic ones (the AxE model
            serves an immutable CSR and would answer from a stale
            snapshot); passing ``True`` on a dynamic session is an
            error for the same reason.
        fail_hardware_at_s:
            Fault-injection hook: kill the hardware backend this far
            into the run to exercise graceful degradation.
        mutations:
            Explicit mutation timeline (dynamic sessions only); each
            :class:`~repro.memstore.ingest.Mutation` is applied to the
            store at its ``time_s`` on the gateway's virtual clock,
            interleaved with the read traffic.
        mutation_rate:
            Convenience generator: this many mutations per virtual
            second, drawn as a deterministic preferential-attachment
            trace (:func:`~repro.memstore.ingest.growth_trace`) spread
            over ``duration_s``. Combines with ``mutations``.
        """
        if tenants is None:
            tenants = default_tenants(duration_s)
        if mutation_rate < 0:
            raise ConfigurationError(
                f"mutation_rate must be non-negative, got {mutation_rate}"
            )
        if (mutations or mutation_rate) and self.dynamic is None:
            raise ConfigurationError(
                "mutations require a session built over a DynamicGraph"
            )
        if include_hardware is None:
            include_hardware = self.dynamic is None
        elif include_hardware and self.dynamic is not None:
            raise ConfigurationError(
                "include_hardware=True is incompatible with a DynamicGraph "
                "session: a mutable graph runs the inline software sampler "
                "only (the AxE model serves an immutable base snapshot)"
            )
        software = SoftwareBackend(self.sampler, functional=functional)
        backends = [software]
        fail_backend_at: Optional[Dict[str, float]] = None
        if include_hardware:
            hardware = HardwareBackend(self.engine, functional=functional)
            backends = [hardware, software]
            if fail_hardware_at_s is not None:
                fail_backend_at = {hardware.name: fail_hardware_at_s}
        elif fail_hardware_at_s is not None:
            raise ConfigurationError(
                "fail_hardware_at_s requires include_hardware=True"
            )
        timeline: List[Mutation] = list(mutations or ())
        if mutation_rate:
            timeline.extend(
                growth_trace(
                    self.graph.num_nodes,
                    int(round(mutation_rate * duration_s)),
                    duration_s=duration_s,
                    seed=(self._seed if seed is None else seed) + 1,
                )
            )
        events: Optional[List[Tuple[float, Callable[[], None]]]] = None
        if timeline:
            timeline.sort(key=lambda m: m.time_s)
            events = [
                (m.time_s, (lambda mut=m: self.store.apply([mut])))
                for m in timeline
            ]
        mutations_before = (
            self.store.ingest_stats.mutations if self.dynamic is not None else 0
        )
        report = serve_workload(
            backends,
            tenants,
            duration_s=duration_s,
            num_nodes=self.graph.num_nodes,
            seed=self._seed if seed is None else seed,
            config=config,
            fail_backend_at=fail_backend_at,
            events=events,
        )
        if self.dynamic is not None:
            report.mutations_applied = (
                self.store.ingest_stats.mutations - mutations_before
            )
        return report

    def serve_cluster(
        self,
        trace: Optional["TraceConfig"] = None,
        config: Optional["ClusterConfig"] = None,
        duration_s: float = 2.0,
        users: int = 100_000,
        functional: bool = True,
    ) -> "ClusterReport":
        """Run the multi-replica cluster with session-backed replicas.

        Every replica's gateway dispatches onto *this* session's
        sampler (the sharded parallel engine when the session was built
        with ``workers=k``), so micro-batches really sample the graph
        instead of charging the flavors' analytical service model.
        Root ids in the trace are clamped to this session's graph.
        """
        from dataclasses import replace

        from repro.cluster import (
            ClusterConfig,
            ClusterSim,
            flash_crowd_day,
            session_backends,
        )

        if trace is None:
            trace = flash_crowd_day(duration_s=duration_s, users=users)
        if trace.num_nodes > self.graph.num_nodes:
            trace = replace(trace, num_nodes=self.graph.num_nodes)
        if config is None:
            config = ClusterConfig()
        factory = session_backends(self, functional=functional)
        return ClusterSim(
            trace,
            config=config,
            backend_factories={arch: factory for arch in config.archs},
        ).run()

    # ------------------------------------------------------ fixed model API
    def graphsage(
        self,
        hidden_dim: int,
        fanouts: Tuple[int, ...],
        num_labels: int,
        aggregator: str = "max",
        lr: float = 1.0,
    ) -> Trainer:
        """A ready-to-train graphSAGE classifier over this session.

        The frequently-used fixed-model API of Section 5: wires the
        session's sampler to an encoder and a classification head.
        """
        if self.graph.attr_len == 0:
            raise ConfigurationError(
                "graphsage needs node attributes; this graph has none"
            )
        encoder = GraphSageEncoder(
            self.graph.attr_len,
            hidden_dim,
            tuple(fanouts),
            aggregator=aggregator,
            seed=self._seed,
        )
        return Trainer(
            self.sampler, encoder, num_labels=num_labels, lr=lr, seed=self._seed
        )

    def train(
        self,
        labels: np.ndarray,
        fanouts: Tuple[int, ...],
        roots: Optional[np.ndarray] = None,
        epochs: int = 1,
        embedding_dim: int = 16,
        hidden_dim: int = 16,
        lr: float = 0.05,
        batch_size: int = 32,
        pipeline_depth: int = 2,
        cached_epochs: int = 0,
        sampling_method: Optional[str] = None,
    ) -> TrainReport:
        """Pipelined supervised training over this session's graph.

        Builds a :class:`~repro.gnn.pipeline.PipelinedTrainer` — shard
        workers hop-sample micro-batch *k+1* while the coordinator runs
        micro-batch *k*'s forward/backward against a sharded embedding
        table — runs ``epochs`` passes, and returns its
        :class:`~repro.gnn.pipeline.TrainReport`. Losses and final
        weights are bit-identical at every session ``workers`` count.

        ``roots`` defaults to every node; ``cached_epochs >= 1``
        enables the multi-hop :class:`~repro.gnn.pipeline.
        NeighborhoodCache` for repeated-epoch training. ``labels`` and
        ``roots`` are in original IDs under every layout. Requires a
        static session: a mutable graph runs the inline software
        sampler only, and the trainer drives the sharded engine.
        """
        if self.dynamic is not None:
            raise ConfigurationError(
                "train() requires a static graph session: a mutable graph "
                "runs the inline software sampler only, and the trainer "
                "drives the sharded engine"
            )
        if roots is None:
            roots = np.arange(self.graph.num_nodes, dtype=np.int64)
        with PipelinedTrainer(
            self.store,
            labels,
            fanouts,
            embedding_dim=embedding_dim,
            hidden_dim=hidden_dim,
            lr=lr,
            seed=self._seed,
            workers=self.workers,
            pipeline_depth=pipeline_depth,
            batch_size=batch_size,
            sampling_method=(
                self._sampling_method
                if sampling_method is None
                else sampling_method
            ),
            cached_epochs=cached_epochs,
        ) as trainer:
            return trainer.train(roots, epochs=epochs)
