"""Runs one workload in this process and turns its segments into metrics.

The timed region is a sequence of equal *segments* (a fixed number of
ops each, inputs a function of ``(seed, segment index)``). Segments run
until ``--seconds`` have passed, and at least :data:`MIN_SEGMENTS` of
them. Every host-time metric is the median over segments. Everything
``exact`` covers the first :data:`EXACT_SEGMENTS` segments only -- they
always run, so those numbers do not depend on how fast the host is.

A traced run alternates traced and untraced segments (even indices
traced). The per-layer times come from the traced ones, and the ratio
of the two medians is the tracing overhead, measured inside one process
on interleaved segments instead of across two processes.
"""

from __future__ import annotations

import gc
import resource
import statistics
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import metrics as registry
from spans import Fold, Tracer

MIN_SEGMENTS = 5
EXACT_SEGMENTS = 5
#: Set-up is timed at least this often, then until it has taken
#: SETUP_BUDGET_S in all (cheap set-ups need more samples to be steady).
#: One more, cold, set-up comes first and is not counted: it pays for
#: lazy imports and first-touch allocation, once per process.
SETUP_REPEATS = (3, 7)
SETUP_BUDGET_S = 1.0


class Workload:
    """What a workload module implements; see ``workloads/``."""

    NAME = ""
    #: What ``throughput_per_s`` counts and what one ``op_p50_ms`` op is.
    ITEM = ""
    OP = ""
    #: Shard worker processes the workload keeps busy beside this one.
    WORKERS = 0
    #: metric name -> (span name, "self" | "total"), per traced segment.
    LAYERS: Dict[str, Tuple[str, str]] = {}
    #: The same for spans opened during set-up.
    SETUP_LAYERS: Dict[str, Tuple[str, str]] = {}

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.smoke = smoke
        self.attempted = 0
        self.failed = 0

    def setup(self, tracer: Optional[Tracer]) -> None:
        """Build the inputs and the program under test, and warm it up."""
        raise NotImplementedError

    def trace(self, tracer: Tracer) -> None:
        """Register the span wrappers on this workload's objects."""
        raise NotImplementedError

    def inputs(self, index: int):
        """Generate segment ``index``'s inputs from the seed (untimed)."""
        return None

    def segment(self, index: int, inputs) -> Tuple[int, List[float]]:
        """Run segment ``index``; returns (work items, seconds per op)."""
        raise NotImplementedError

    def snapshot(self) -> None:
        """Called once, right after segment ``EXACT_SEGMENTS - 1``."""

    def outcome(self) -> Dict[str, float]:
        """The ``OUTCOME`` metrics, over the first ``EXACT_SEGMENTS``."""
        return {}

    def counted(self, counts: Dict[str, float], folds: List[Fold]) -> Dict[str, float]:
        """``TRACED`` count metrics, from the tallies of the first
        ``EXACT_SEGMENTS`` traced segments (and all their folds)."""
        return {}

    def side_measurements(self, op_times: List[float]) -> Dict[str, float]:
        """Extra ``TRACED`` metrics measured outside the timed region;
        ``op_times`` are the seconds per op of the untraced segments."""
        return {}

    def notes(self) -> Dict[str, object]:
        """Facts to record beside the metrics (digests, caveats)."""
        return {}

    def check(self) -> Dict[str, bool]:
        """Correctness checks, outside the timed region."""
        raise NotImplementedError

    def close(self) -> None:
        """Stop whatever ``setup`` started."""


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def entry(name: str, samples: Sequence[float]) -> Dict[str, object]:
    """A host-time metric: median over ``samples``, with its spread."""
    q1, _, q3 = quartiles(samples)
    return {
        "value": statistics.median(samples),
        "unit": registry.BY_NAME[name].unit,
        "kind": registry.BY_NAME[name].kind,
        "q1": q1,
        "q3": q3,
        "n": len(samples),
        "samples": list(samples),
    }


def single(name: str, value: float) -> Dict[str, object]:
    return {
        "value": value,
        "unit": registry.BY_NAME[name].unit,
        "kind": registry.BY_NAME[name].kind,
        "n": 1,
    }


def _layer_times(layers: Dict[str, Tuple[str, str]], fold: Fold) -> Dict[str, float]:
    return {
        metric: (fold.self_s if which == "self" else fold.total_s).get(span_name, 0.0)
        for metric, (span_name, which) in layers.items()
    }


def _set_up(cls, seed: int, smoke: bool, tracer: Optional[Tracer]):
    """Set up several times; keep the last workload, time all but the first."""
    times: List[float] = []
    layer_samples: Dict[str, List[float]] = {m: [] for m in cls.SETUP_LAYERS}
    fewest, most = (1, 1) if smoke else SETUP_REPEATS
    workload = None
    cold = not smoke
    while len(times) < fewest or (len(times) < most and sum(times) < SETUP_BUDGET_S):
        if workload is not None:
            workload.close()
        start = perf_counter()
        workload = cls(seed, smoke)
        workload.setup(tracer)
        elapsed = perf_counter() - start
        layers = _layer_times(cls.SETUP_LAYERS, tracer.fold()) if tracer is not None else {}
        if cold:
            cold = False
            continue
        times.append(elapsed)
        for metric, value in layers.items():
            layer_samples[metric].append(value)
    return workload, times, layer_samples


def measure(cls, seed: int, seconds: float, traced: bool, smoke: bool) -> Dict[str, object]:
    """Run workload ``cls`` once and return its detailed record."""
    tracer = Tracer() if traced else None
    workload, setup_times, setup_layers = _set_up(cls, seed, smoke, tracer)
    try:
        plain, folds, peak_rss_mb = _timed_region(workload, tracer, seconds)
        checks = workload.check()
        metrics: Dict[str, Dict[str, object]] = {}
        for name, value in workload.outcome().items():
            exact = registry.BY_NAME[name].kind == registry.EXACT
            metrics[name] = single(name, value) if exact else entry(name, value)
        if tracer is None:
            metrics["throughput_per_s"] = entry(
                "throughput_per_s", [items / wall for wall, items, _ in plain]
            )
            metrics["op_p50_ms"] = entry(
                "op_p50_ms", [1e3 * statistics.median(ops) for _, _, ops in plain]
            )
            metrics["setup_s"] = entry("setup_s", setup_times)
            metrics["peak_rss_mb"] = single("peak_rss_mb", peak_rss_mb)
        else:
            for name, samples in setup_layers.items():
                metrics[name] = entry(name, samples)
            metrics.update(_traced_metrics(workload, plain, folds))
    finally:
        workload.close()
    return {
        "workload": workload.NAME,
        "seed": seed,
        "traced": traced,
        "smoke": smoke,
        "seconds": seconds,
        "segments": len(plain) + len(folds),
        "item": workload.ITEM,
        "op": workload.OP,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "checks": checks,
        "correct": all(checks.values()) and workload.failed == 0,
        "notes": workload.notes(),
        "metrics": metrics,
    }


def _timed_region(workload, tracer: Optional[Tracer], seconds: float):
    """Run segments for ``seconds``; traced and untraced ones alternate."""
    if tracer is not None:
        workload.trace(tracer)
    plain: List[Tuple[float, int, List[float]]] = []
    folds: List[Tuple[float, Fold]] = []
    peak_rss_mb = 0.0
    deadline = perf_counter() + seconds
    index = 0
    while True:
        trace_this = tracer is not None and index % 2 == 0
        # Start every segment from a collected heap, so that a full
        # collection lands between segments and not inside some of them.
        inputs = workload.inputs(index)
        gc.collect()
        if trace_this:
            tracer.attach()
            top = tracer.enter("bench.segment")
        start = perf_counter()
        items, op_times = workload.segment(index, inputs)
        wall = perf_counter() - start
        if trace_this:
            tracer.exit(top)
            tracer.detach()
            folds.append((wall, tracer.fold()))
        else:
            plain.append((wall, items, op_times))
        index += 1
        if index == EXACT_SEGMENTS:
            workload.snapshot()
            # Taken here, after a fixed amount of work, because some
            # workloads grow with every further segment (mutate_mixed's
            # graph) and a faster host runs more of them. Linux reports
            # ru_maxrss in KiB; it covers this process only (the shard
            # workers of sample_sharded are forks sharing its pages).
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        enough = len(plain) >= MIN_SEGMENTS and (tracer is None or len(folds) >= MIN_SEGMENTS)
        if enough and perf_counter() >= deadline:
            return plain, folds, peak_rss_mb


def _traced_metrics(workload, plain, folds) -> Dict[str, Dict[str, object]]:
    """The ``TRACED`` metrics: span times, tallies, side measurements."""
    metrics: Dict[str, Dict[str, object]] = {}
    per_segment = [_layer_times(workload.LAYERS, fold) for _, fold in folds]
    for name in workload.LAYERS:
        metrics[name] = entry(name, [layer[name] for layer in per_segment])
    counts: Dict[str, float] = {}
    for _, fold in folds[:EXACT_SEGMENTS]:
        for name, value in fold.counts.items():
            counts[name] = counts.get(name, 0.0) + value
    for name, value in workload.counted(counts, [fold for _, fold in folds]).items():
        metrics[name] = single(name, value)
    op_times = [seconds for _, _, ops in plain for seconds in ops]
    for name, value in workload.side_measurements(op_times).items():
        metrics[name] = single(name, value)
    traced_walls = [wall for wall, _ in folds]
    segment = entry("bench.segment_s", traced_walls)
    # What bench/tests checks: the self times of everything under a
    # segment's top span add up to that span.
    segment["self_sum_s"] = [sum(fold.self_s.values()) for _, fold in folds]
    segment["top_span_s"] = [fold.total_s["bench.segment"] for _, fold in folds]
    metrics["bench.segment_s"] = segment
    metrics["bench.trace_overhead_frac"] = single(
        "bench.trace_overhead_frac",
        statistics.median(traced_walls) / statistics.median(wall for wall, _, _ in plain) - 1.0,
    )
    return metrics
