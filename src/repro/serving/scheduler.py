"""SLO-aware dispatch order and per-tenant admission fair share.

Two policies live here, one per decision the gateway makes:

* **Admission** — a token bucket per tenant, provisioned at the
  tenant's fair-share rate (with headroom and burst). A tenant
  offering beyond its contract is refused *before* its excess can
  queue behind everyone else's traffic; refusals carry the
  earliest-useful retry time.
* **Dispatch** — earliest-deadline-first over ready micro-batches. A
  batch's deadline is the tightest member deadline, so a mixed batch
  inherits its most urgent tenant's urgency.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/s, ``burst`` capacity."""

    def __init__(self, rate: float, burst: float) -> None:
        if rate <= 0:
            raise ConfigurationError(f"rate must be positive, got {rate}")
        if burst < 1:
            raise ConfigurationError(f"burst must be at least 1, got {burst}")
        self.rate = rate
        self.burst = burst
        self._tokens = burst
        self._last_s = 0.0

    def _refill(self, now_s: float) -> None:
        if now_s > self._last_s:
            self._tokens = min(
                self.burst, self._tokens + (now_s - self._last_s) * self.rate
            )
            self._last_s = now_s

    @property
    def tokens(self) -> float:
        return self._tokens

    def try_take(self, now_s: float, cost: float = 1.0) -> bool:
        """Consume ``cost`` tokens if available; ``False`` otherwise."""
        self._refill(now_s)
        if self._tokens >= cost:
            self._tokens -= cost
            return True
        return False

    def time_until(self, now_s: float, cost: float = 1.0) -> float:
        """Seconds until ``cost`` tokens will have accumulated."""
        self._refill(now_s)
        deficit = cost - self._tokens
        if deficit <= 0:
            return 0.0
        return deficit / self.rate


class SloScheduler:
    """Token-bucket admission + earliest-deadline-first ready queue."""

    def __init__(self) -> None:
        self._buckets: Dict[str, TokenBucket] = {}
        self._ready: List[Tuple[float, int, object]] = []
        self._sequence = count()

    # ---------------------------------------------------------- admission
    def register_tenant(self, name: str, rate: float, burst: float) -> None:
        self._buckets[name] = TokenBucket(rate=rate, burst=burst)

    def admit(
        self, tenant: str, now_s: float, cost: float = 1.0
    ) -> Optional[float]:
        """Charge the tenant's bucket; ``None`` on success, otherwise
        the retry-after hint in seconds."""
        bucket = self._buckets.get(tenant)
        if bucket is None:
            raise ConfigurationError(f"unknown tenant {tenant!r}")
        if bucket.try_take(now_s, cost):
            return None
        return bucket.time_until(now_s, cost)

    # ----------------------------------------------------------- dispatch
    def push(self, deadline_s: float, item: object) -> None:
        """Queue a ready micro-batch keyed by its deadline."""
        heapq.heappush(self._ready, (deadline_s, next(self._sequence), item))

    def pop(self) -> object:
        """Remove and return the most urgent ready micro-batch."""
        if not self._ready:
            raise ConfigurationError("scheduler ready queue is empty")
        _deadline, _seq, item = heapq.heappop(self._ready)
        return item

    def __len__(self) -> int:
        return len(self._ready)
