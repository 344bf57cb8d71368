"""Span recorder that measures ``src/repro`` layers from outside.

Nothing in ``src/repro`` is edited: :meth:`Tracer.wrap` shadows a bound
method with an instance attribute that opens a span, calls the original
and closes the span. :meth:`Tracer.attach` installs every registered
wrapper and :meth:`Tracer.detach` removes them again, so one process
can run traced and untraced segments side by side and the untraced ones
execute exactly the code an untraced run does.

A span is ``(id, parent id, name, start, end)``. Spans are appended to a
list when they close and nothing else happens on the hot path;
:meth:`Tracer.fold` turns the list into per-name totals after the timed
segment has ended. A span's *self* time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import contextlib
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

_ABSENT = object()

Tally = Callable[[Dict[str, float], tuple, dict, Any], None]


@dataclass
class Fold:
    """Per-name aggregates of the spans recorded since the last fold."""

    total_s: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    self_s: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    durations_s: Dict[str, List[float]] = field(
        default_factory=lambda: defaultdict(list)
    )
    counts: Dict[str, float] = field(default_factory=dict)


class Tracer:
    def __init__(self) -> None:
        self._spans: List[Tuple[int, int, str, float, float]] = []
        self._stack: List[int] = []
        self._next_id = 0
        #: Tallies made at the wrapped calls (rows asked for, ...).
        self.counts: Dict[str, float] = defaultdict(float)
        self._patches: List[Tuple[Any, str, Any]] = []
        self._saved: List[Any] = []

    # ----------------------------------------------------------- recording
    def enter(self, name: str) -> Tuple[int, int, str, float]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(span_id)
        return span_id, parent, name, perf_counter()

    def exit(self, token: Tuple[int, int, str, float]) -> None:
        end = perf_counter()
        self._stack.pop()
        self._spans.append(token + (end,))

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        token = self.enter(name)
        try:
            yield
        finally:
            self.exit(token)

    # ------------------------------------------------------------ wrapping
    def wrap(
        self, obj: Any, attr: str, name: str, tally: Optional[Tally] = None
    ) -> None:
        """Register a span named ``name`` around ``obj.attr(...)``.

        ``tally(counts, args, kwargs, result)`` runs after the span has
        closed, so counting is not charged to the layer.
        """
        inner = getattr(obj, attr)

        def traced(*args: Any, **kwargs: Any) -> Any:
            token = self.enter(name)
            try:
                result = inner(*args, **kwargs)
            finally:
                self.exit(token)
            if tally is not None:
                tally(self.counts, args, kwargs, result)
            return result

        self._patches.append((obj, attr, traced))

    def swap(self, obj: Any, attr: str, value: Any) -> None:
        """Register ``obj.attr = value`` for the traced segments."""
        self._patches.append((obj, attr, value))

    def attach(self) -> None:
        self._saved = [vars(obj).get(attr, _ABSENT) for obj, attr, _ in self._patches]
        for obj, attr, value in self._patches:
            setattr(obj, attr, value)

    def detach(self) -> None:
        for (obj, attr, _), saved in zip(self._patches, self._saved):
            if saved is _ABSENT:
                delattr(obj, attr)
            else:
                setattr(obj, attr, saved)
        self._saved = []

    # ------------------------------------------------------------- folding
    def fold(self) -> Fold:
        """Aggregate and clear everything recorded since the last fold."""
        out = Fold()
        children: Dict[int, float] = defaultdict(float)
        # Spans close child-first, so a parent's children are all summed
        # by the time the parent itself comes up.
        for span_id, parent, name, start, end in self._spans:
            duration = end - start
            out.total_s[name] += duration
            out.self_s[name] += duration - children.pop(span_id, 0.0)
            out.durations_s[name].append(duration)
            children[parent] += duration
        out.counts = dict(self.counts)
        self._spans = []
        self.counts = defaultdict(float)
        return out


def span(tracer: Optional[Tracer], name: str):
    """A span on ``tracer``, or nothing at all in an untraced run."""
    return contextlib.nullcontext() if tracer is None else tracer.span(name)


class TimedKernels:
    """Kernel tier that spans every primitive of the tier it wraps.

    Handed to ``MultiHopSampler`` in place of its kernel tier for the
    traced segments; results are the inner tier's, bit for bit.
    """

    PRIMITIVES = (
        "rowwise_weighted_picks",
        "gather_rows",
        "take_picks",
        "segment_sum",
        "ragged_segment_sum",
    )

    def __init__(self, inner: Any, tracer: Tracer, name: str) -> None:
        self.name = inner.name
        self.compiled = inner.compiled
        for primitive in self.PRIMITIVES:
            setattr(self, primitive, self._timed(getattr(inner, primitive), tracer, name))

    @staticmethod
    def _timed(fn: Callable[..., Any], tracer: Tracer, name: str) -> Callable[..., Any]:
        def timed(*args: Any, **kwargs: Any) -> Any:
            token = tracer.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit(token)

        return timed
