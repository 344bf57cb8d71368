"""Open-loop workload generation for the serving gateway.

`serve_closed_loop` drives the same gateway in a *closed* loop (workers
issue the next batch only after the previous completes); real
inference traffic is *open* — users arrive whether or not the system
keeps up, which is what makes overload, shedding, and backpressure
observable at all.
Each tenant is an independent (optionally diurnally-modulated) Poisson
process; arrivals are pre-generated so a run is a pure function of the
seed.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class DiurnalProfile:
    """Sinusoidal rate modulation: ``rate * (1 + amplitude*sin(...))``.

    A laptop-scale stand-in for the day/night traffic swing a
    hyperscale service provisions for; ``period_s`` is the full cycle
    (compressed from 24h to the run window).
    """

    amplitude: float = 0.0
    period_s: float = 1.0
    phase: float = 0.0

    def __post_init__(self) -> None:
        if not 0 <= self.amplitude < 1:
            raise ConfigurationError(
                f"amplitude must be in [0, 1), got {self.amplitude}"
            )
        if self.period_s <= 0:
            raise ConfigurationError(
                f"period_s must be positive, got {self.period_s}"
            )

    def multiplier(self, time_s: float) -> float:
        """Instantaneous rate multiplier at ``time_s``."""
        return 1.0 + self.amplitude * float(
            np.sin(2 * np.pi * time_s / self.period_s + self.phase)
        )


@dataclass(frozen=True)
class TenantSpec:
    """One traffic source sharing the gateway.

    ``rate_rps`` is the *offered* request rate; ``provisioned_rps`` is
    the rate the tenant paid for (its token-bucket fair share). They
    differ exactly when the tenant is overloading its contract, which
    is the case load shedding exists for. ``None`` provisions at the
    offered rate.
    """

    name: str
    rate_rps: float
    roots_per_request: int = 4
    fanouts: Tuple[int, ...] = (5, 5)
    slo_s: float = 20e-3
    provisioned_rps: Optional[float] = None
    diurnal: Optional[DiurnalProfile] = None
    start_s: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("tenant name must be non-empty")
        if self.rate_rps <= 0:
            raise ConfigurationError(
                f"rate_rps must be positive, got {self.rate_rps}"
            )
        if self.roots_per_request <= 0:
            raise ConfigurationError(
                f"roots_per_request must be positive, got {self.roots_per_request}"
            )
        if not self.fanouts or any(f <= 0 for f in self.fanouts):
            raise ConfigurationError(
                f"fanouts must be positive, got {self.fanouts}"
            )
        if self.slo_s <= 0:
            raise ConfigurationError(f"slo_s must be positive, got {self.slo_s}")
        if self.provisioned_rps is not None and self.provisioned_rps <= 0:
            raise ConfigurationError(
                f"provisioned_rps must be positive, got {self.provisioned_rps}"
            )
        if self.start_s < 0:
            raise ConfigurationError(
                f"start_s must be non-negative, got {self.start_s}"
            )

    @property
    def fair_share_rps(self) -> float:
        """The rate the admission token bucket is provisioned at."""
        if self.provisioned_rps is not None:
            return self.provisioned_rps
        return self.rate_rps

    def overloaded(self, factor: float) -> "TenantSpec":
        """The same tenant offering ``factor``x its provisioned rate."""
        if factor <= 0:
            raise ConfigurationError(f"factor must be positive, got {factor}")
        return dataclasses.replace(
            self,
            rate_rps=self.fair_share_rps * factor,
            provisioned_rps=self.fair_share_rps,
        )


@dataclass(frozen=True)
class Arrival:
    """One request materialized from a tenant's arrival process."""

    time_s: float
    tenant: str
    roots: np.ndarray
    fanouts: Tuple[int, ...]
    slo_s: float
    seq: int

    @property
    def deadline_s(self) -> float:
        return self.time_s + self.slo_s

    @property
    def num_roots(self) -> int:
        return int(self.roots.size)


def default_tenants(duration_s: float = 0.5) -> List[TenantSpec]:
    """Three representative tenants sharing one sampling shape.

    Recsys carries a diurnal swing (one full cycle over the run
    window); fraud is small-batch latency-critical; search sends
    larger batches with a looser SLO. All three use the same fanouts
    so the gateway can coalesce their roots into shared micro-batches.
    """
    return [
        TenantSpec(
            name="recsys",
            rate_rps=240.0,
            roots_per_request=4,
            fanouts=(5, 5),
            slo_s=20e-3,
            diurnal=DiurnalProfile(amplitude=0.3, period_s=duration_s),
        ),
        TenantSpec(
            name="fraud",
            rate_rps=160.0,
            roots_per_request=2,
            fanouts=(5, 5),
            slo_s=10e-3,
        ),
        TenantSpec(
            name="search",
            rate_rps=120.0,
            roots_per_request=8,
            fanouts=(5, 5),
            slo_s=40e-3,
        ),
    ]


def generate_arrivals(
    tenants: Sequence[TenantSpec],
    duration_s: float,
    num_nodes: int,
    seed: int = 0,
) -> List[Arrival]:
    """Materialize every tenant's Poisson stream over ``duration_s``.

    Non-homogeneous (diurnal) tenants use Lewis-Shedler thinning:
    candidates are drawn at the peak rate and accepted with
    probability ``rate(t)/rate_peak``. Returns arrivals merged in time
    order, deterministically for a fixed seed.
    """
    if duration_s <= 0:
        raise ConfigurationError(
            f"duration_s must be positive, got {duration_s}"
        )
    if num_nodes <= 0:
        raise ConfigurationError(
            f"num_nodes must be positive, got {num_nodes}"
        )
    if not tenants:
        raise ConfigurationError("at least one tenant is required")
    names = [t.name for t in tenants]
    if len(set(names)) != len(names):
        raise ConfigurationError(f"tenant names must be unique, got {names}")

    arrivals: List[Arrival] = []
    for tenant_index, spec in enumerate(tenants):
        rng = np.random.default_rng(seed + 1009 * tenant_index)
        peak = spec.rate_rps
        if spec.diurnal is not None:
            peak *= 1.0 + spec.diurnal.amplitude
        time_s = spec.start_s
        while True:
            time_s += float(rng.exponential(1.0 / peak))
            if time_s >= duration_s:
                break
            if spec.diurnal is not None:
                accept = spec.rate_rps * spec.diurnal.multiplier(time_s) / peak
                if rng.random() >= accept:
                    continue
            roots = rng.integers(
                0, num_nodes, size=spec.roots_per_request, dtype=np.int64
            )
            arrivals.append(
                Arrival(
                    time_s=time_s,
                    tenant=spec.name,
                    roots=roots,
                    fanouts=spec.fanouts,
                    slo_s=spec.slo_s,
                    seq=0,
                )
            )
    arrivals.sort(key=lambda a: a.time_s)
    return [
        dataclasses.replace(arrival, seq=index)
        for index, arrival in enumerate(arrivals)
    ]
