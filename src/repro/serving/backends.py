"""Pluggable sampling backends behind the serving gateway.

Two execution targets from the rest of the repo are wrapped behind one
interface: the AliGraph-style software :class:`MultiHopSampler` (the
CPU path the paper characterizes) and the event-simulated
:class:`AxeEngine` (the FPGA path). A backend owes the gateway two
things per micro-batch: the functional result (optional, for
timing-only studies) and the *service time* the batch occupies one of
its slots — virtual time for the gateway's discrete-event run.

Backends carry a health bit so the gateway can inject failures and
exercise graceful degradation (hardware dies, software absorbs the
in-flight and subsequent load).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.axe.commands import sample_command
from repro.axe.engine import AxeEngine
from repro.framework.requests import SampleRequest, nodes_per_root
from repro.framework.sampler import MultiHopSampler
from repro.units import US

#: Modelled per-key speedup of the vectorized sampler over the per-node
#: walk that ``per_key_s`` describes: a constant, not a measurement,
#: pending ROADMAP 1c.
BATCHED_SPEEDUP = 5.0


@dataclass
class BackendResult:
    """What one micro-batch execution produced."""

    #: Functional payload (sample layers); ``None`` in timing-only mode.
    payload: Optional[object]
    #: Virtual time the batch occupies a backend slot.
    service_s: float


class ServingBackend(abc.ABC):
    """One execution target with bounded slot concurrency."""

    def __init__(self, name: str, concurrency: int) -> None:
        if concurrency <= 0:
            raise ConfigurationError(
                f"concurrency must be positive, got {concurrency}"
            )
        self.name = name
        self.concurrency = concurrency
        self.healthy = True

    @abc.abstractmethod
    def execute(
        self, roots: np.ndarray, fanouts: Tuple[int, ...]
    ) -> BackendResult:
        """Run one micro-batch; returns payload + service time."""

    def fail(self) -> None:
        """Fault-injection hook: mark this backend dead."""
        self.healthy = False

    def restore(self) -> None:
        self.healthy = True


class SoftwareBackend(ServingBackend):
    """The CPU sampling-service path (AliGraph workers on vCPUs).

    Service time is a first-order cost model: a fixed RPC/setup
    overhead plus a per-touched-key software cost, divided across the
    worker pool's vCPU parallelism. ``per_key_s`` is the per-node
    walk's cost; every sampler is vectorized, so it is always divided
    by :data:`BATCHED_SPEEDUP`, whatever the sampler's worker count:
    shard worker processes are modelled as no faster than inline
    sampling, because on a single host they are not.
    """

    def __init__(
        self,
        sampler: MultiHopSampler,
        concurrency: int = 4,
        functional: bool = True,
        base_overhead_s: float = 150.0 * US,
        per_key_s: float = 3.0 * US,
        parallelism: int = 8,
        name: str = "software",
    ) -> None:
        super().__init__(name=name, concurrency=concurrency)
        if base_overhead_s <= 0 or per_key_s <= 0:
            raise ConfigurationError("overhead and per-key cost must be positive")
        if parallelism <= 0:
            raise ConfigurationError(
                f"parallelism must be positive, got {parallelism}"
            )
        self.sampler = sampler
        self.functional = functional
        self.base_overhead_s = base_overhead_s
        self.per_key_s = per_key_s
        self.parallelism = parallelism

    def sampling_speedup(self) -> float:
        """Modeled speedup of the wrapped sampler over the reference walk."""
        return BATCHED_SPEEDUP

    def execute(
        self, roots: np.ndarray, fanouts: Tuple[int, ...]
    ) -> BackendResult:
        keys = int(roots.size) * nodes_per_root(fanouts)
        per_key_s = self.per_key_s / self.sampling_speedup()
        service_s = self.base_overhead_s + keys * per_key_s / self.parallelism
        payload = None
        if self.functional:
            payload = self.sampler.sample(
                SampleRequest(roots=roots, fanouts=fanouts)
            )
        return BackendResult(payload=payload, service_s=service_s)


class HardwareBackend(ServingBackend):
    """The AxE FPGA path behind a host dispatch interface.

    In functional mode every micro-batch runs through the event
    simulator and the measured ``elapsed_s`` (plus a fixed host
    dispatch overhead) is the service time. In timing-only mode the
    engine is probed once per fanout shape at two batch sizes and a
    linear (intercept + slope*roots) model stands in — the engine's
    pipelines make per-batch time affine in root count to first order.
    """

    def __init__(
        self,
        engine: AxeEngine,
        concurrency: int = 1,
        functional: bool = True,
        dispatch_overhead_s: float = 50.0 * US,
        name: str = "axe",
    ) -> None:
        super().__init__(name=name, concurrency=concurrency)
        if dispatch_overhead_s <= 0:
            raise ConfigurationError(
                f"dispatch_overhead_s must be positive, got {dispatch_overhead_s}"
            )
        self.engine = engine
        self.functional = functional
        self.dispatch_overhead_s = dispatch_overhead_s
        self._calibration: Dict[Tuple[int, ...], Tuple[float, float]] = {}

    def _calibrate(self, fanouts: Tuple[int, ...]) -> Tuple[float, float]:
        """Probe the engine at two batch sizes; fit time = a + b*roots."""
        model = self._calibration.get(fanouts)
        if model is not None:
            return model
        num_nodes = self.engine.graph.num_nodes
        sizes = (4, 16)
        times = []
        for size in sizes:
            probe = np.arange(size, dtype=np.int64) % num_nodes
            _result, stats = self.engine.run(sample_command(probe, fanouts))
            times.append(stats.elapsed_s)
        slope = (times[1] - times[0]) / (sizes[1] - sizes[0])
        slope = max(slope, 0.0)
        intercept = max(times[0] - slope * sizes[0], 0.0)
        model = (intercept, slope)
        self._calibration[fanouts] = model
        return model

    def execute(
        self, roots: np.ndarray, fanouts: Tuple[int, ...]
    ) -> BackendResult:
        if self.functional:
            results, stats = self.engine.run(sample_command(roots, fanouts))
            return BackendResult(
                payload=results,
                service_s=self.dispatch_overhead_s + stats.elapsed_s,
            )
        intercept, slope = self._calibrate(fanouts)
        service_s = self.dispatch_overhead_s + intercept + slope * roots.size
        return BackendResult(payload=None, service_s=service_s)
