"""Sharded parallel execution engine.

Two pieces, mirroring the paper's concurrency story:

- :mod:`repro.parallel.worker` — the **worker pool**: persistent
  processes that inherit the graph at start and run per-shard batched
  samplers with stateless per-(shard, micro-batch) ``SeedSequence``
  RNG streams, so results are deterministic and replay-verifiable
  regardless of worker count or completion order.
- :mod:`repro.parallel.engine` / :mod:`repro.parallel.pipeline` — the
  **pipelined coordinator**: double-buffered micro-batches overlapping
  hop sampling on shard workers with attribute gather + GNN forward on
  the coordinator.
"""

from repro.parallel.engine import ParallelSampler
from repro.parallel.pipeline import PipelinedExecutor, micro_batches
from repro.parallel.worker import ShardRuntime, shard_seed

__all__ = [
    "ParallelSampler",
    "PipelinedExecutor",
    "micro_batches",
    "ShardRuntime",
    "shard_seed",
]
