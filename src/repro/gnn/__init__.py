"""Mini-batch GNN compute: layers, models, training, end-to-end model."""

from repro.gnn.layers import (
    Dense,
    MaxPoolAggregator,
    MeanAggregator,
    SageLayer,
    ragged_segment_sum,
    segment_mean,
    segment_sum,
)
from repro.gnn.models import DSSM, GraphSageEncoder
from repro.gnn.gcn import GcnEncoder, GcnLayer
from repro.gnn.embedding import (
    EmbeddingShard,
    ShardedEmbeddingTable,
)
from repro.gnn.pipeline import (
    NeighborhoodCache,
    PipelinedTrainer,
    TrainReport,
)
from repro.gnn.train import (
    link_prediction_loss,
    link_prediction_loss64,
    multilabel_loss,
    multilabel_loss64,
)
from repro.gnn.metrics import micro_f1, accuracy
from repro.gnn.e2e import EndToEndModel, StageBreakdown

__all__ = [
    "Dense",
    "segment_sum",
    "segment_mean",
    "ragged_segment_sum",
    "MaxPoolAggregator",
    "MeanAggregator",
    "SageLayer",
    "DSSM",
    "GraphSageEncoder",
    "GcnEncoder",
    "GcnLayer",
    "EmbeddingShard",
    "ShardedEmbeddingTable",
    "NeighborhoodCache",
    "PipelinedTrainer",
    "TrainReport",
    "link_prediction_loss",
    "link_prediction_loss64",
    "multilabel_loss",
    "multilabel_loss64",
    "micro_f1",
    "accuracy",
    "EndToEndModel",
    "StageBreakdown",
]
