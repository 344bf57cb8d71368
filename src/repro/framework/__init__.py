"""AliGraph-style sampling framework substrate: servers, workers, sampler."""

from repro.framework.requests import NegativeSampleRequest, SampleRequest, SampleResult
from repro.framework.sampler import MultiHopSampler
from repro.framework.cpu_model import CpuSamplingModel, WorkloadShape
from repro.framework.cluster import ClusterModel, ScalingPoint
from repro.framework.tracing import characterize_access_mix
from repro.framework.selectors import (
    get_bucket_selector,
    get_selector,
    select_streaming,
    select_uniform,
)
from repro.framework.kernels import NUMPY_KERNELS
from repro.framework.replay import (
    ReferenceWalkSampler,
    ReplaySelector,
    replay_reference,
)

__all__ = [
    "NegativeSampleRequest",
    "SampleRequest",
    "SampleResult",
    "MultiHopSampler",
    "CpuSamplingModel",
    "WorkloadShape",
    "ClusterModel",
    "ScalingPoint",
    "characterize_access_mix",
    "get_bucket_selector",
    "get_selector",
    "NUMPY_KERNELS",
    "ReferenceWalkSampler",
    "ReplaySelector",
    "replay_reference",
    "select_streaming",
    "select_uniform",
]
