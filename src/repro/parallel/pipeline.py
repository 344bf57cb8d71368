"""Pipelined micro-batch executor: sample → gather → compute overlap.

The AxE pipeline hides memory latency by keeping thousands of requests
outstanding; the software analogue here keeps ``depth`` micro-batches
in flight against the shard workers. While the coordinator merges
micro-batch *k*, gathers its attributes, and runs the caller's compute
stage (typically a GNN forward), the workers are already hop-sampling
micro-batches *k+1 .. k+depth-1* — the three stages of HP-GNN's
CPU+accelerator pipeline, double-buffered by default.

With a ``workers=0`` engine nothing overlaps: submit only queues the
shard tasks, and the first collect of a queued micro-batch expands
every queued one at once. There the executor runs a window of
:data:`INLINE_WINDOW_POSITIONS` sampled positions ahead instead of
``depth`` micro-batches, so the fixed cost of an expansion is paid once
per window. Results are bit-identical either way — which is exactly the
determinism contract ``tests/test_parallel_engine.py`` asserts.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Iterable, Iterator, List, Optional, Tuple

from repro.errors import ConfigurationError, ParallelExecutionError
from repro.framework.requests import SampleRequest, SampleResult, nodes_per_root
from repro.parallel.engine import ParallelSampler

#: Against the inline engine the executor keeps submitting until the
#: in-flight requests hold at least this many sampled positions (roots
#: x ``nodes_per_root(fanouts)``); the first collect then expands them
#: all in one ``run_shards``. Measured per-pass sampling time (4,096
#: roots of a 20k-node power-law graph, numpy 2.4, 2 vCPUs, W = 2^10 ..
#: 2^18): fanouts (4,3) in batches of 64 falls 2.0x from W = 2^10 to
#: 2^14 and is flat after; fanouts (10,10) in batches of 256 (28k
#: positions each) is flat up to 2^14, 16 % lower from 2^15 (two
#: batches a window), flat after. So 2^15, the knee of both.
INLINE_WINDOW_POSITIONS = 2**15


class PipelinedExecutor:
    """Run a stream of sampling requests with double-buffered overlap.

    Parameters
    ----------
    sampler:
        The parallel engine to execute on.
    depth:
        Maximum micro-batches in flight on a worker pool. 2 = classic
        double buffering. An inline engine (``workers=0``) runs a window
        of :data:`INLINE_WINDOW_POSITIONS` sampled positions ahead
        instead.
    """

    def __init__(self, sampler: ParallelSampler, depth: int = 2) -> None:
        if depth < 1:
            raise ConfigurationError(f"pipeline depth must be >= 1, got {depth}")
        self.sampler = sampler
        self.depth = depth
        #: ``(seq, sampled positions)`` of each micro-batch submitted
        #: but not yet collected. Owned by the executor (one stream at
        #: a time) so :meth:`drain` can flush the pipeline after a
        #: failed compute step.
        self._in_flight: Deque[Tuple[int, int]] = deque()
        #: In-flight micro-batches whose discard itself failed during a
        #: drain (e.g. a shard error surfaced while flushing).
        self.drain_failures = 0

    def run(
        self,
        requests: Iterable[SampleRequest],
        compute: Optional[Callable[[SampleResult], object]] = None,
    ) -> List[object]:
        """Execute ``requests`` through the pipeline, in order.

        ``compute(result)`` is the coordinator-side consumer stage; its
        return values (or the raw :class:`SampleResult` objects when
        ``compute`` is ``None``) come back in request order. The next
        micro-batch is always submitted *before* compute runs, so the
        workers stay busy through the compute stage.
        """
        return list(self.stream(requests, compute))

    def stream(
        self,
        requests: Iterable[SampleRequest],
        compute: Optional[Callable[[SampleResult], object]] = None,
    ) -> Iterator[object]:
        """Lazy variant of :meth:`run`: yields outputs in request order.

        If the compute stage raises (or the generator is closed with
        micro-batches outstanding), the in-flight tail is drained so no
        worker is left owing a reply — the exception still propagates
        to the caller.
        """
        it = iter(requests)
        in_flight = self._in_flight
        if in_flight:
            raise ParallelExecutionError(
                "executor already has micro-batches in flight; "
                "one stream at a time"
            )
        try:
            exhausted = self._fill(it)
            while in_flight:
                seq, _positions = in_flight.popleft()
                result = self.sampler.collect(seq)
                # Refill before the compute stage so shard workers
                # overlap with it rather than idling until the next
                # iteration.
                if not exhausted:
                    exhausted = self._fill(it)
                yield compute(result) if compute is not None else result
        finally:
            self.drain()

    def drain(self) -> None:
        """Flush every in-flight micro-batch without consuming it.

        Each outstanding sequence number is discarded on the engine
        (which waits out its shard replies). A discard that itself
        fails is counted in :attr:`drain_failures` and draining
        continues — a failed compute step must never leave a batch
        pending, even when a shard error surfaces mid-flush.
        """
        while self._in_flight:
            seq, _positions = self._in_flight.popleft()
            try:
                self.sampler.discard(seq)
            except ParallelExecutionError:
                # Recorded, not swallowed silently: the caller's
                # original exception is already propagating and the
                # remaining batches still need flushing.
                self.drain_failures += 1

    def _full(self) -> bool:
        """``depth`` micro-batches in flight on a worker pool;
        :data:`INLINE_WINDOW_POSITIONS` sampled positions inline."""
        if self.sampler.workers:
            return len(self._in_flight) >= self.depth
        in_flight = sum(positions for _seq, positions in self._in_flight)
        return in_flight >= INLINE_WINDOW_POSITIONS

    def _fill(self, it: Iterator[SampleRequest]) -> bool:
        """Submit until the pipeline is full; ``True`` once ``it`` ends."""
        while not self._full():
            try:
                request = next(it)
            except StopIteration:
                return True
            self._in_flight.append(
                (
                    self.sampler.submit(request),
                    request.roots.size * nodes_per_root(request.fanouts),
                )
            )
        return False


def micro_batches(
    roots, batch_size: int, fanouts: Tuple[int, ...], with_attributes: bool = True
) -> Iterator[SampleRequest]:
    """Split a root array into consecutive micro-batch requests."""
    if batch_size < 1:
        raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
    for start in range(0, len(roots), batch_size):
        yield SampleRequest(
            roots=roots[start : start + batch_size],
            fanouts=tuple(fanouts),
            with_attributes=with_attributes,
        )
