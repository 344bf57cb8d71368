"""train_cached: train_fresh served from the neighbourhood cache."""

from __future__ import annotations

from workloads.train_fresh import TrainFresh


class TrainCached(TrainFresh):
    """Bypasses sampling: NeighborhoodCache.assemble, embedding
    lookup/scatter and compute dominate. A sampler gain must not move it; a
    cache/embedding gain must."""

    NAME = "train_cached"
    OP = TrainFresh.OP + ", every epoch after the first served from the NeighborhoodCache"
    LAYERS = dict(
        TrainFresh.LAYERS,
        **{
            "gnn.cache_probe_s": ("gnn.cache_probe", "total"),
            "gnn.cache_insert_s": ("gnn.cache_insert", "total"),
            "gnn.cache_assemble_s": ("gnn.cache_assemble", "total"),
        },
    )
    #: The cache generation never rolls during a run, however long.
    CACHED_EPOCHS = 10**9

    def trace(self, tracer):
        super().trace(tracer)
        for method in ("probe", "insert", "assemble"):
            tracer.wrap(self.trainer.cache, method, f"gnn.cache_{method}")

    def snapshot(self):
        super().snapshot()
        cache = self.trainer.cache
        self.hit_ratio = cache.root_hits / (cache.root_hits + cache.root_misses)

    def outcome(self):
        return dict(super().outcome(), **{"gnn.cache_hit_ratio": self.hit_ratio})

    def side_measurements(self, op_times):
        return {}
