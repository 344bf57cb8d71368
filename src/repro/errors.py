"""Exception hierarchy for the repro package.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch a single type at the API boundary.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigurationError(ReproError):
    """An object was constructed or configured with invalid parameters."""


class GraphError(ReproError):
    """A graph is malformed or an operation referenced a missing element."""


class PartitionError(ReproError):
    """A partitioning operation failed or referenced a missing partition."""


class ReplicaUnavailableError(PartitionError):
    """No replica of a partition could serve a read before its deadline."""


class ParallelExecutionError(ReproError):
    """A shard worker failed or the parallel execution engine desynced."""


class SimulationError(ReproError):
    """The event-driven simulator reached an inconsistent state."""


class ProtocolError(ReproError):
    """A MoF frame or compressed block violated the wire format."""


class DecodeError(ReproError):
    """An instruction, frame, or command could not be decoded."""


class CapacityError(ReproError):
    """A bounded hardware resource (queue, tag file, cache) overflowed."""


class CommandError(ReproError):
    """An AxE command was malformed or unsupported."""
