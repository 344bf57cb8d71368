"""Pipelined micro-batch executor: sample → gather → compute overlap.

The AxE pipeline hides memory latency by keeping thousands of requests
outstanding; the software analogue here keeps ``depth`` micro-batches
in flight against the shard workers. While the coordinator merges
micro-batch *k*, gathers its attributes, and runs the caller's compute
stage (typically a GNN forward), the workers are already hop-sampling
micro-batches *k+1 .. k+depth-1* — the three stages of HP-GNN's
CPU+accelerator pipeline, double-buffered by default.

With a ``workers=0`` engine the executor degrades gracefully to strict
serial execution (submit runs the shard tasks inline), producing
bit-identical results — which is exactly the determinism contract
``tests/test_parallel_engine.py`` asserts.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Iterable, Iterator, List, Optional, Tuple

from repro.errors import ConfigurationError, ParallelExecutionError
from repro.framework.requests import SampleRequest, SampleResult
from repro.parallel.engine import ParallelSampler


class PipelinedExecutor:
    """Run a stream of sampling requests with double-buffered overlap.

    Parameters
    ----------
    sampler:
        The parallel engine to execute on.
    depth:
        Maximum micro-batches in flight. 2 = classic double buffering.
    """

    def __init__(self, sampler: ParallelSampler, depth: int = 2) -> None:
        if depth < 1:
            raise ConfigurationError(f"pipeline depth must be >= 1, got {depth}")
        self.sampler = sampler
        self.depth = depth
        #: Sequence numbers submitted but not yet collected. Owned by
        #: the executor (one stream at a time) so :meth:`drain` can
        #: flush the pipeline after a failed compute step.
        self._in_flight: Deque[int] = deque()
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
            exhausted = False
            while not exhausted and len(in_flight) < self.depth:
                exhausted = not self._prime(it, in_flight)
            while in_flight:
                seq = in_flight.popleft()
                result = self.sampler.collect(seq)
                # Refill before the compute stage so shard workers
                # overlap with it rather than idling until the next
                # iteration.
                if not exhausted:
                    exhausted = not self._prime(it, in_flight)
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
            seq = self._in_flight.popleft()
            try:
                self.sampler.discard(seq)
            except ParallelExecutionError:
                # Recorded, not swallowed silently: the caller's
                # original exception is already propagating and the
                # remaining batches still need flushing.
                self.drain_failures += 1

    def _prime(self, it: Iterator[SampleRequest], in_flight: Deque[int]) -> bool:
        try:
            request = next(it)
        except StopIteration:
            return False
        in_flight.append(self.sampler.submit(request))
        return True


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
