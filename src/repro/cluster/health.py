"""Failure detection over the replica pool.

The router notices a dead replica's *connection* failures instantly
(refused sockets redirect the request), but the work already admitted
inside the replica — queued groups, scheduled batches, in-flight
micro-batches — is invisible from outside. The health monitor is the
component that turns "stopped answering probes" into a detected
failure the cluster can act on: evacuate the stranded work onto
surviving replicas and hot-restart the member.

Detection is deliberately not instantaneous: a replica must miss
``fail_threshold`` consecutive probes spaced ``probe_interval_s``
apart, so the detection latency is bounded by
``fail_threshold * probe_interval_s`` — the window the end-to-end kill
test exercises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.errors import ConfigurationError
from repro.cluster.replica import ClusterReplica


@dataclass(frozen=True)
class HealthConfig:
    """Probe cadence and failure-detection threshold."""

    probe_interval_s: float = 0.05
    fail_threshold: int = 2

    def __post_init__(self) -> None:
        if self.probe_interval_s <= 0:
            raise ConfigurationError(
                f"probe_interval_s must be positive, got "
                f"{self.probe_interval_s}"
            )
        if self.fail_threshold < 1:
            raise ConfigurationError(
                f"fail_threshold must be at least 1, got "
                f"{self.fail_threshold}"
            )


class HealthMonitor:
    """Consecutive-miss failure detector over watched replicas."""

    def __init__(self, config: HealthConfig) -> None:
        self.config = config
        self._watched: Dict[str, ClusterReplica] = {}
        self._strikes: Dict[str, int] = {}
        self.probes = 0
        self.detected_failures = 0

    @property
    def watched(self) -> List[str]:
        return list(self._watched)

    def watch(self, replica: ClusterReplica) -> None:
        if replica.name in self._watched:
            raise ConfigurationError(
                f"replica {replica.name!r} already watched"
            )
        self._watched[replica.name] = replica
        self._strikes[replica.name] = 0

    def unwatch(self, name: str) -> None:
        if name not in self._watched:
            raise ConfigurationError(f"replica {name!r} not watched")
        del self._watched[name]
        del self._strikes[name]

    def probe_all(self) -> List[ClusterReplica]:
        """One probe round; returns replicas newly detected as failed.

        A detected replica is unwatched — it is the cluster's job to
        re-watch it after a successful restart.
        """
        newly_failed: List[ClusterReplica] = []
        for name in list(self._watched):
            replica = self._watched[name]
            self.probes += 1
            if replica.alive:
                self._strikes[name] = 0
                continue
            self._strikes[name] += 1
            if self._strikes[name] >= self.config.fail_threshold:
                self.detected_failures += 1
                newly_failed.append(replica)
                self.unwatch(name)
        return newly_failed
