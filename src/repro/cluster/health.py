"""Failure detection over the replica pool.

The router notices a dead replica's *connection* failures instantly
(refused sockets redirect the request), but the work already admitted
inside the replica — queued groups, scheduled batches, in-flight
micro-batches — is invisible from outside. The health monitor is the
component that turns "stopped answering probes" into a detected
failure the cluster can act on: evacuate the stranded work onto
surviving replicas and hot-restart the member.

Detection is deliberately not instantaneous: a replica must miss
``FAIL_THRESHOLD`` consecutive probes spaced ``PROBE_INTERVAL_S``
apart, so the detection latency is bounded by
``FAIL_THRESHOLD * PROBE_INTERVAL_S`` — the window the end-to-end kill
test exercises.
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import ConfigurationError
from repro.cluster.replica import ClusterReplica


class HealthMonitor:
    """Consecutive-miss failure detector over watched replicas."""

    #: Probe cadence.
    PROBE_INTERVAL_S = 0.05
    #: Consecutive missed probes that mark a replica failed.
    FAIL_THRESHOLD = 2

    def __init__(self) -> None:
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
            if self._strikes[name] >= self.FAIL_THRESHOLD:
                self.detected_failures += 1
                newly_failed.append(replica)
                self.unwatch(name)
        return newly_failed
