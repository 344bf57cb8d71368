"""axe_sample: the AxE hardware model sampling in the event simulator."""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.api import GnnSession
from repro.graph.datasets import instantiate_dataset
from repro.perfmodel.poc import POC_SWEEP, validate_model

from harness import EXACT_SEGMENTS, Workload
from workloads import common


class AxeSample(Workload):
    """The paper's own artefact: AxE event-simulator speed (host) and
    modelled throughput (simulated), with the analytical model's error
    stated beside it; touches none of the software-sampler layers."""

    NAME = "axe_sample"
    ITEM = "simulator events"
    OP = "GnnSession.sample_hw on 64 roots, fanouts (10,10), streaming sampler"
    SETUP_LAYERS = {"graph.build_s": ("graph.build", "total")}

    FANOUTS = (10, 10)
    BATCHES = 2

    def setup(self, tracer):
        self.nodes, self.roots = (2000, 16) if self.smoke else (20000, 64)
        self.graph = common.ll_graph(self.seed, self.nodes, tracer)
        self.session = GnnSession(self.graph, seed=self.seed)
        self.stats = []
        self.checked_roots = self.inputs(-1)[0]
        self.checked, _ = self.session.sample_hw(self.checked_roots, self.FANOUTS)

    def inputs(self, segment):
        rng = np.random.default_rng([self.seed, segment + 1])
        return [
            rng.integers(0, self.graph.num_nodes, size=self.roots, dtype=np.int64)
            for _ in range(self.BATCHES)
        ]

    def trace(self, tracer):
        tracer.wrap(self.session, "sample_hw", "axe.sample_hw")

    def segment(self, index, batches):
        times = []
        events = 0
        for roots in batches:
            start = perf_counter()
            _layers, stats = self.session.sample_hw(roots, self.FANOUTS)
            times.append(perf_counter() - start)
            events += stats.events
            if index < EXACT_SEGMENTS:
                self.stats.append(stats)
        self.attempted += len(times)
        return events, times

    def outcome(self):
        stats = self.stats
        # The model-vs-event-simulator sweep of Fig. 15, on the paper's
        # ``ls`` shape: how far the numbers above can be trusted.
        sweep_graph = instantiate_dataset("ls", max_nodes=self.nodes, seed=self.seed)
        start = perf_counter()
        rows = validate_model(sweep_graph, POC_SWEEP, batch_size=48, seed=self.seed)
        self.validate_s = perf_counter() - start
        return {
            "axe.sim_roots_per_s": sum(s.roots for s in stats) / sum(s.elapsed_s for s in stats),
            "axe.events": float(sum(s.events for s in stats)),
            "axe.max_outstanding": float(max(s.max_outstanding for s in stats)),
            "axe.output_utilization": float(
                np.mean([s.channel_utilization["output"] for s in stats])
            ),
            "axe.remote_bytes": float(sum(s.channel_bytes["remote"] for s in stats)),
            "perfmodel.model_error_pct": 100.0 * float(np.mean([row.error for row in rows])),
        }

    def side_measurements(self, op_times):
        events_per_batch = sum(s.events for s in self.stats) / len(self.stats)
        return {
            "axe.host_us_per_event": 1e6 * float(np.median(op_times)) / events_per_batch,
            "perfmodel.validate_s": self.validate_s,
        }

    def check(self):
        """Every sampled id is a neighbour of its parent (or the parent
        itself, the zero-degree self-loop fallback)."""
        ok = True
        for root, layers in self.checked.items():
            parents = np.asarray([root])
            for layer in layers[1:]:
                children = layer.reshape(parents.size, -1)
                for parent, picked in zip(parents, children):
                    allowed = np.append(self.graph.neighbors(int(parent)), parent)
                    ok &= bool(np.isin(picked, allowed).all())
                parents = layer
        return {
            "samples_are_neighbours": ok,
            "every_root_answered": set(self.checked) == set(self.checked_roots.tolist()),
        }

    def close(self):
        self.session.close()
