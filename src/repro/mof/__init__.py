"""Memory-over-Fabric (MoF): framing, compression, fabric, topology."""

from repro.mof.frames import (
    GENZ,
    MOF,
    FrameFormat,
    FrameBreakdown,
    batch_breakdown,
)
from repro.mof.bdi import bdi_compress, bdi_decompress, compressed_size
from repro.mof.fabric import MofFabric
from repro.mof.topology import FabricTopology, chain, full_mesh, ring

__all__ = [
    "GENZ",
    "MOF",
    "FrameFormat",
    "FrameBreakdown",
    "batch_breakdown",
    "bdi_compress",
    "bdi_decompress",
    "compressed_size",
    "MofFabric",
    "FabricTopology",
    "chain",
    "full_mesh",
    "ring",
]
