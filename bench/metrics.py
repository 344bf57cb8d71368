"""Every metric the benchmark reports: name, unit, direction, kind, bound.

``BENCHMARK.json`` lists the same names (``bench/tests`` checks the two
agree). ``kind`` says how a value may be compared between two runs:

* ``host`` -- host wall-clock (or memory); noisy, compared by median
  against ``bound`` (the share of the baseline by which it may worsen).
* ``exact`` -- simulated time, a counter or a loss: a deterministic
  function of ``--seed`` that must repeat bit for bit.

End-to-end metrics are the same four on every workload, so each
workload can be held to each bound; what the "op" is on a workload is
stated in that workload's module and in ``bench/README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

HOST = "host"
EXACT = "exact"


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    kind: str = HOST
    #: Relative worsening of the median that ``compare.py`` counts as a
    #: regression; ``BENCHMARK.json`` carries it for the end-to-end four.
    bound: Optional[float] = None
    #: Absolute worsening below which a change is never a regression
    #: (set-up times of a few tens of ms are all scheduler noise).
    floor: float = 0.0


# The host-time bounds are the widest the driver allows. ISSUE 11 asked
# for 0.10, but on the shared 2-core VM the benchmark was defined on the
# ten-seed spread (quartile distance / median) is up to 8 % while the host
# is quiet and 15-45 % while a neighbour is busy; bench/README.md has the
# tables.
END_TO_END: Tuple[Metric, ...] = (
    # Work items per host second: roots (sample_*, mutate_mixed),
    # training samples (train_*), simulated requests (serve_open),
    # AxE simulator events (axe_sample).
    Metric("throughput_per_s", "1/s", "higher", bound=0.25),
    # Median host latency of one op: a batch (sample_*, axe_sample), an
    # apply+sample iteration (mutate_mixed), an epoch (train_*), one
    # served window of simulated traffic (serve_open).
    Metric("op_p50_ms", "ms", "lower", bound=0.25),
    Metric("peak_rss_mb", "MB", "lower", bound=0.10),
    Metric("setup_s", "s", "lower", bound=0.25, floor=0.050),
)

#: What the system computed, as opposed to how fast: deterministic
#: given the seed, so identical in a traced and an untraced run (the
#: one host-time entry, ``memstore.mutations_per_s``, is timed by the
#: workload loop itself, not by a span). Reported by both kinds of run.
OUTCOME: Tuple[Metric, ...] = (
    Metric("memstore.mutations_per_s", "1/s", "higher", bound=0.25),
    Metric("memstore.bytes_total", "B", "lower", EXACT),
    Metric("memstore.remote_count_fraction", "frac", "lower", EXACT),
    Metric("memstore.compactions", "count", "lower", EXACT),
    Metric("memstore.delta_hits", "count", "lower", EXACT),
    Metric("memstore.delta_edges_read", "count", "lower", EXACT),
    Metric("gnn.final_loss", "loss", "lower", EXACT),
    Metric("gnn.cache_hit_ratio", "ratio", "higher", EXACT),
    Metric("serving.p50_ms", "ms", "lower", EXACT),
    Metric("serving.p99_ms", "ms", "lower", EXACT),
    Metric("serving.slo_attainment", "frac", "higher", EXACT),
    Metric("serving.max_rate_rps", "1/s", "higher", EXACT),
    Metric("serving.batches", "count", "lower", EXACT),
    Metric("serving.mean_batch_requests", "count", "higher", EXACT),
    Metric("serving.mean_batch_roots", "count", "higher", EXACT),
    Metric("serving.max_queue_depth", "count", "lower", EXACT),
    Metric("serving.shed_frac", "frac", "lower", EXACT),
    Metric("axe.sim_roots_per_s", "1/s", "higher", EXACT),
    Metric("axe.events", "count", "lower", EXACT),
    Metric("axe.max_outstanding", "count", "higher", EXACT),
    Metric("axe.output_utilization", "frac", "higher", EXACT),
    Metric("axe.remote_bytes", "B", "lower", EXACT),
    Metric("perfmodel.model_error_pct", "%", "lower", EXACT),
)

#: Only a traced run can see these: span self/total times per segment,
#: counts tallied at the wrapped calls, and side measurements.
TRACED: Tuple[Metric, ...] = (
    Metric("graph.build_s", "s", "lower"),
    Metric("memstore.attributes_batch_s", "s", "lower"),
    Metric("memstore.neighbors_batch_s", "s", "lower"),
    Metric("memstore.attribute_rows", "count", "lower", EXACT),
    Metric("memstore.neighbor_lists", "count", "lower", EXACT),
    Metric("memstore.apply_s", "s", "lower"),
    Metric("framework.sample_self_s", "s", "lower"),
    Metric("framework.kernels_s", "s", "lower"),
    Metric("framework.dedup_ratio", "ratio", "lower", EXACT),
    Metric("framework.batch_p95_ms", "ms", "lower"),
    Metric("parallel.submit_s", "s", "lower"),
    Metric("parallel.collect_s", "s", "lower"),
    Metric("parallel.collect_wait_s", "s", "lower"),
    Metric("parallel.pool_start_s", "s", "lower"),
    Metric("parallel.inline_ratio", "ratio", "lower"),
    Metric("parallel.leaked_segments", "count", "lower", EXACT),
    Metric("gnn.sample_s", "s", "lower"),
    Metric("gnn.lookup_s", "s", "lower"),
    Metric("gnn.forward_backward_s", "s", "lower"),
    Metric("gnn.scatter_s", "s", "lower"),
    Metric("gnn.optimizer_s", "s", "lower"),
    Metric("gnn.cache_probe_s", "s", "lower"),
    Metric("gnn.cache_insert_s", "s", "lower"),
    Metric("gnn.cache_assemble_s", "s", "lower"),
    Metric("gnn.micro_batches", "count", "lower", EXACT),
    Metric("gnn.overlap_speedup_w1", "ratio", "higher"),
    Metric("serving.backend_sample_s", "s", "lower"),
    Metric("serving.gateway_s", "s", "lower"),
    Metric("serving.arrival_gen_s", "s", "lower"),
    Metric("axe.host_us_per_event", "us", "lower"),
    Metric("perfmodel.validate_s", "s", "lower"),
    # The traced segment every ``*_s`` span metric above is a share of,
    # and what recording the spans cost.
    Metric("bench.segment_s", "s", "lower"),
    Metric("bench.trace_overhead_frac", "frac", "lower"),
)

PER_LAYER: Tuple[Metric, ...] = OUTCOME + TRACED

BY_NAME: Dict[str, Metric] = {m.name: m for m in END_TO_END + PER_LAYER}
