"""serve_open: open-loop multi-tenant serving through the gateway."""

from __future__ import annotations

import dataclasses
import math
import statistics
from time import perf_counter

import numpy as np

from repro.api import GnnSession
from repro.serving.workload import default_tenants, generate_arrivals

from harness import EXACT_SEGMENTS, Workload
from workloads import common

#: The gateway's target: this share of offered requests inside its SLO,
#: and the last one done this soon after the arrival window closes.
ATTAINMENT_TARGET = 0.99
DRAIN_LAG_LIMIT_S = 10e-3
#: Octaves above the benchmark rate the sweep gives up at.
SWEEP_MAX_DOUBLINGS = 8


class ServeOpen(Workload):
    """Gateway admission -> micro-batch -> backend -> sampler end to end,
    under an open-loop arrival schedule the system does not control."""

    NAME = "serve_open"
    ITEM = "simulated requests"
    OP = "serve one window of the three default tenants at 8x rate (4160 rps offered)"
    LAYERS = dict(
        common.SAMPLER_LAYERS,
        **{"serving.backend_sample_s": ("framework.sample", "total")},
    )
    SETUP_LAYERS = {"graph.build_s": ("graph.build", "total")}

    RATE_X = 8.0

    def setup(self, tracer):
        # Simulated seconds per segment, and per step of the rate sweep.
        self.nodes, self.window_s, self.sweep_window_s = (
            (2000, 0.02, 0.01) if self.smoke else (20000, 0.25, 0.1)
        )
        self.graph = common.ll_graph(self.seed, self.nodes, tracer)
        self.session = GnnSession(self.graph, batched=True, seed=self.seed)
        self.reports = []
        self.conserved = True
        self._serve(-1)

    def _tenants(self, window_s, rate_x):
        return [
            dataclasses.replace(tenant, rate_rps=tenant.rate_rps * rate_x)
            for tenant in default_tenants(window_s)
        ]

    def _arrival_seed(self, segment):
        return self.seed + 10_007 * (segment + 2)

    def _serve(self, segment, functional=True, rate_x=RATE_X, window_s=None):
        window_s = window_s or self.window_s
        return self.session.serve(
            self._tenants(window_s, rate_x),
            duration_s=window_s,
            include_hardware=False,
            functional=functional,
            seed=self._arrival_seed(segment),
        )

    def trace(self, tracer):
        common.trace_sampler(tracer, self.session.sampler)
        tracer.wrap(self.session, "serve", "serving.serve")

    def segment(self, index, _inputs):
        # The arrivals are generated inside serve(), from the seed.
        start = perf_counter()
        report = self._serve(index)
        wall = perf_counter() - start
        if len(self.reports) < EXACT_SEGMENTS:
            self.reports.append(report)
        self.attempted += report.offered
        # A request the gateway sheds was answered (retry-after) and is
        # charged to slo_attainment; one that vanished is a failure.
        self.failed += report.offered - report.completed - report.shed
        self.conserved &= report.offered == report.completed + report.shed
        return report.offered, [wall]

    def _holds(self, rate_x):
        report = self._serve(-2, functional=False, rate_x=rate_x, window_s=self.sweep_window_s)
        return (
            _attainment([report]) >= ATTAINMENT_TARGET
            and report.drain_s - self.sweep_window_s <= DRAIN_LAG_LIMIT_S
        )

    def _max_rate_rps(self):
        """Highest offered rate that still holds, to 1/8 octave.

        Timing-only replays (the calibrated service-time model, no
        sampling), doubling from the benchmark rate and then bisecting.
        """
        if not self._holds(self.RATE_X):
            return 0.0
        low = self.RATE_X
        for _ in range(SWEEP_MAX_DOUBLINGS):
            if not self._holds(2 * low):
                break
            low *= 2
        high = 2 * low
        for _ in range(3):
            middle = math.sqrt(low * high)
            if self._holds(middle):
                low = middle
            else:
                high = middle
        return low * sum(t.rate_rps for t in default_tenants(self.sweep_window_s))

    def outcome(self):
        reports = self.reports
        latencies_ms = 1e3 * np.concatenate([r.latencies_s for r in reports])
        offered = sum(r.offered for r in reports)
        batches = sum(len(r.batch_request_sizes) for r in reports)
        return {
            "serving.p50_ms": float(np.percentile(latencies_ms, 50)),
            "serving.p99_ms": float(np.percentile(latencies_ms, 99)),
            "serving.slo_attainment": _attainment(reports),
            "serving.max_rate_rps": self._max_rate_rps(),
            "serving.batches": float(batches),
            "serving.mean_batch_requests": sum(sum(r.batch_request_sizes) for r in reports) / batches,
            "serving.mean_batch_roots": sum(sum(r.batch_root_sizes) for r in reports) / batches,
            "serving.max_queue_depth": float(max(r.max_queue_depth for r in reports)),
            "serving.shed_frac": sum(r.shed for r in reports) / offered,
        }

    def counted(self, counts, folds):
        return common.sampler_counts(counts, folds)

    def side_measurements(self, op_times):
        """Host time of the gateway alone, and of generating arrivals.

        The first segments' arrivals again, timing-only: admission,
        queueing, batching and dispatch without any sampling.
        """
        gateway, generation = [], []
        for segment in range(EXACT_SEGMENTS):
            start = perf_counter()
            self._serve(segment, functional=False)
            gateway.append(perf_counter() - start)
            start = perf_counter()
            generate_arrivals(
                self._tenants(self.window_s, self.RATE_X),
                duration_s=self.window_s,
                num_nodes=self.graph.num_nodes,
                seed=self._arrival_seed(segment),
            )
            generation.append(perf_counter() - start)
        return {
            "serving.gateway_s": statistics.median(gateway),
            "serving.arrival_gen_s": statistics.median(generation),
        }

    def notes(self):
        return {
            "open loop": "arrivals are pre-generated on the simulated clock and each "
            "latency runs from the request's due time, so generator lateness is 0 by "
            "construction; serving.* latencies and rates are simulated time",
            "simulated seconds per segment": self.window_s,
        }

    def check(self):
        return {"offered_eq_completed_plus_shed": self.conserved}

    def close(self):
        self.session.close()


def _attainment(reports) -> float:
    """Completions inside their SLO over requests offered (shed = miss)."""
    within = sum(t.completed - t.slo_misses for r in reports for t in r.tenants.values())
    return within / sum(r.offered for r in reports)
