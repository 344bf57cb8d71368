#!/usr/bin/env python3
"""AliGraph's wider feature set: heterogeneous, dynamic, and the
service view.

1. Heterogeneous e-commerce graph (user/item/shop) with metapath
   sampling (user -click-> item -in-> shop).
2. Dynamic graph growth with LSM-style compaction and sampling over
   snapshots.
3. Challenge-1 on the serving gateway: closed-loop workers, latency
   percentiles and deadline misses under load.

Run:  python examples/hetero_dynamic_service.py
"""

import numpy as np

from repro.api import GnnSession
from repro.graph.csr import CSRGraph
from repro.graph.dynamic import DynamicGraph, simulate_growth
from repro.graph.generators import power_law_graph
from repro.graph.hetero import make_ecommerce_graph
from repro.serving import SoftwareBackend, serve_closed_loop


def main():
    print("=== heterogeneous e-commerce graph ===")
    shop_graph = make_ecommerce_graph(
        num_users=2000, num_items=5000, num_shops=100, seed=0
    )
    for key, csr in shop_graph.relations.items():
        print(f"  {key[0]:>5} -{key[1]:^6}-> {key[2]:<5} {csr.num_edges:>7} edges")
    rng = np.random.default_rng(0)
    layers = shop_graph.sample_metapath(
        roots=np.arange(16),
        metapath=[("user", "click", "item"), ("item", "in", "shop")],
        fanouts=(8, 1),
        rng=rng,
    )
    print(f"  metapath sample user->item->shop: "
          f"{[tuple(layer.shape) for layer in layers]}")
    unique_shops = len(np.unique(layers[2]))
    print(f"  16 users reach {unique_shops} distinct shops\n")

    print("=== dynamic graph growth ===")
    graph = DynamicGraph(power_law_graph(1000, 5.0, seed=1), compact_threshold=2000)
    simulate_growth(graph, 5000, new_node_probability=0.05, seed=2)
    print(f"  after 5000 events: {graph.num_nodes} nodes, "
          f"{graph.num_edges} edges, {graph.compactions} compactions, "
          f"{graph.delta_edges} edges still in the delta")
    snapshot = graph.snapshot()
    in_degrees = np.bincount(snapshot.indices, minlength=snapshot.num_nodes)
    print(f"  hottest node holds {in_degrees.max()} in-edges "
          f"(preferential attachment)\n")

    print("=== Challenge-1: service latency under load ===")
    session = GnnSession(snapshot, num_partitions=4, seed=0)
    backends = [SoftwareBackend(session.sampler, functional=False)]
    quiet = serve_closed_loop(backends, 1, 6, num_nodes=snapshot.num_nodes)
    deadline = quiet.p99 * 1.2
    loaded = serve_closed_loop(
        backends, 32, 3, num_nodes=snapshot.num_nodes, slo_s=deadline
    )
    print(f"  quiet : p50 {1e3 * quiet.p50:6.2f}ms  p99 {1e3 * quiet.p99:6.2f}ms")
    print(f"  loaded: p50 {1e3 * loaded.p50:6.2f}ms  p99 {1e3 * loaded.p99:6.2f}ms "
          f"(max queue depth {loaded.max_queue_depth})")
    print(f"  with a {1e3 * deadline:.2f}ms inference deadline, the loaded "
          f"system misses {100 * loaded.slo_miss_rate:.0f}% "
          f"of batches — throughput alone cannot fix latency "
          f"(the paper's Challenge-1)")


if __name__ == "__main__":
    main()
