"""Command-line interface: regenerate any of the paper's experiments.

Usage::

    python -m repro footprint          # Figure 2(a)
    python -m repro scaling            # Figure 2(b)
    python -m repro access-mix         # Figure 2(c)
    python -m repro e2e                # Figure 3
    python -m repro poc                # Figure 14
    python -m repro validate           # Figure 15
    python -m repro cost               # Figure 16
    python -m repro dse                # Figures 17-21
    python -m repro sampler            # Tech-2 cycle/resource numbers
    python -m repro system             # multi-card scaling
    python -m repro service            # Challenge-1 latency
    python -m repro serve              # online SLO-aware serving gateway
    python -m repro cluster            # multi-replica cost-driven autoscaling
    python -m repro faults             # fault-tolerant remote-memory path
    python -m repro lint               # invariant linter (every rule, one pass)

Timing lives outside the package: ``python3 bench/run.py``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.lintcli import add_lint_arguments
from repro.units import MS_PER_S, format_bytes


def _cmd_footprint(_args) -> None:
    from repro.graph.datasets import DATASET_ORDER, get_dataset
    from repro.memstore.layout import FootprintModel

    model = FootprintModel()
    print("dataset  footprint     min_servers")
    for name in DATASET_ORDER:
        row = model.report(get_dataset(name))
        print(f"{name:<8} {format_bytes(row.total_bytes):<12} {row.min_servers}")


def _cmd_scaling(_args) -> None:
    from repro.framework.cluster import ClusterModel
    from repro.framework.cpu_model import CpuSamplingModel, WorkloadShape
    from repro.graph.datasets import DATASET_ORDER, get_dataset

    shapes = [WorkloadShape.from_spec(get_dataset(n)) for n in DATASET_ORDER]
    cluster = ClusterModel(CpuSamplingModel())
    print("servers  speedup  efficiency")
    for point in cluster.average_scaling_curve(shapes, (1, 5, 15)):
        print(f"{point.num_servers:>7}  {point.speedup_vs_one:>7.2f}"
              f"  {point.efficiency:>10.2f}")


def _cmd_access_mix(args) -> None:
    from repro.framework.tracing import characterize_access_mix
    from repro.graph.datasets import DATASET_ORDER, instantiate_dataset

    print("dataset  structure%(count)  structure%(bytes)")
    for name in DATASET_ORDER:
        graph = instantiate_dataset(name, max_nodes=args.max_nodes, seed=0)
        mix = characterize_access_mix(graph, name, batch_size=32, num_batches=2)
        print(f"{name:<8} {100 * mix.structure_count_fraction:>16.1f}"
              f" {100 * mix.structure_bytes_fraction:>18.1f}")


def _cmd_e2e(_args) -> None:
    from repro.gnn.e2e import EndToEndModel

    model = EndToEndModel()
    for phase, training in (("training", True), ("inference", False)):
        breakdown = model.breakdown(training)
        print(f"{phase:<10} sampling {100 * breakdown.sampling_fraction:5.1f}%"
              f"  total {MS_PER_S * breakdown.total_s:6.2f} ms/batch")
    print(f"storage ratio: {model.storage_ratio():.1e}")


def _cmd_poc(args) -> None:
    from repro.perfmodel.poc import geomean_equivalence, poc_vcpu_equivalence

    rows = poc_vcpu_equivalence(max_nodes=args.max_nodes, batch_size=96)
    print("dataset  FPGA(roots/s)  vCPU-equivalence")
    for row in rows:
        print(f"{row.dataset:<8} {row.fpga_roots_per_s:>12.0f}"
              f"  {row.vcpu_equivalence:>15.0f}")
    print(f"geomean: {geomean_equivalence(rows):.0f} (paper: 894)")


def _cmd_validate(args) -> None:
    from repro.graph.datasets import instantiate_dataset
    from repro.perfmodel.poc import POC_SWEEP, validate_model

    graph = instantiate_dataset("ls", max_nodes=args.max_nodes, seed=0)
    rows = validate_model(graph, POC_SWEEP, batch_size=48)
    print("config           measured     modeled      err%")
    for row in rows:
        print(f"{row.point.label:<16} {row.measured_roots_per_s:>10.0f}"
              f"  {row.modeled_roots_per_s:>10.0f}  {100 * row.error:>6.1f}")
    mean_error = sum(r.error for r in rows) / len(rows)
    print(f"mean error: {100 * mean_error:.1f}%")


def _cmd_cost(_args) -> None:
    from repro.cost.regression import validate_cost_model

    print("instance    listed   predicted  error%")
    for row in validate_cost_model():
        print(f"{row.product_id:<11} {row.listed:>7.3f}  {row.predicted:>9.3f}"
              f"  {100 * row.error:>6.2f}")


def _cmd_dse(args) -> None:
    from repro.faas.dse import FaasDse
    from repro.faas.report import (
        arch_geomeans,
        format_perf_per_dollar_table,
        format_perf_table,
    )

    dse = FaasDse(gpus_per_12gbps=args.gpus_per_12gbps)
    results = dse.evaluate_all()
    cpu_results = dse.cpu_baseline_all()
    print(format_perf_table(results))
    print()
    print(format_perf_per_dollar_table(results, cpu_results))
    print("\ngeomean normalized perf/$:")
    for arch, value in sorted(arch_geomeans(results, cpu_results).items()):
        print(f"  {arch:<15} {value:6.2f}x")


def _cmd_system(args) -> None:
    import numpy as np

    from repro.axe.system import MultiCardSystem, SystemConfig
    from repro.graph.datasets import instantiate_dataset

    graph = instantiate_dataset("ls", max_nodes=args.max_nodes, seed=0)
    roots = np.arange(96)
    print("cards  roots/s     remote%")
    for cards in (1, 2, 4):
        stats = MultiCardSystem(
            graph, SystemConfig(num_cards=cards, output_link=None)
        ).run_batch(roots)
        print(f"{cards:>5}  {stats.roots_per_second:>10.0f}"
              f"  {100 * stats.remote_fraction:>6.1f}")


def _cmd_service(_args) -> None:
    import functools
    import math

    from repro.api import GnnSession
    from repro.graph.datasets import instantiate_dataset
    from repro.serving import SoftwareBackend, serve_closed_loop

    graph = instantiate_dataset("ls", max_nodes=1500, seed=0)
    session = GnnSession(graph, num_partitions=4, seed=0)
    backends = [SoftwareBackend(session.sampler, functional=False)]

    loop = functools.partial(
        serve_closed_loop, backends, num_nodes=graph.num_nodes
    )

    def _ms(value: float) -> str:
        # Percentiles are NaN when a run completed zero batches.
        return "n/a" if math.isnan(value) else f"{MS_PER_S * value:.2f}"

    quiet = loop(1, 6)
    deadline = quiet.p99 * 1.2
    # Without quiet batches there is no deadline to apply to the loaded run.
    loaded = loop(32, 3) if math.isnan(deadline) else loop(32, 3, slo_s=deadline)
    print("load    p50(ms)  p99(ms)")
    print(f"quiet   {_ms(quiet.p50):>7}  {_ms(quiet.p99):>7}")
    print(f"loaded  {_ms(loaded.p50):>7}  {_ms(loaded.p99):>7}")
    if math.isnan(deadline):
        print("deadline misses at 1.2x quiet p99: n/a (no quiet batches)")
    elif not loaded.completed:
        print("deadline misses at 1.2x quiet p99: n/a (no loaded batches)")
    else:
        print("deadline misses at 1.2x quiet p99: "
              f"{100 * loaded.slo_miss_rate:.0f}%")


def _cmd_serve(args) -> None:
    from repro.api import GnnSession
    from repro.graph.datasets import instantiate_dataset
    from repro.serving import default_tenants

    graph = instantiate_dataset("ls", max_nodes=args.max_nodes, seed=0)
    session = GnnSession(graph, num_partitions=4, seed=args.seed)
    tenants = default_tenants(args.duration_s)
    if args.overload != 1.0:
        tenants = [spec.overloaded(args.overload) for spec in tenants]
    report = session.serve(
        tenants=tenants,
        duration_s=args.duration_s,
        functional=not args.no_functional,
        fail_hardware_at_s=args.fail_hardware_at,
    )
    print(f"online serving: {len(tenants)} tenants, "
          f"{args.overload:.1f}x offered/provisioned load")
    print(report.format())


def _cmd_cluster(args) -> None:
    import json

    from repro.cluster import (
        ClusterConfig,
        ClusterSim,
        CostModelPolicy,
        ReactivePolicy,
        SCALING_POLICIES,
        StaticPolicy,
        flash_crowd_day,
        format_comparison,
        get_policy,
    )

    trace = flash_crowd_day(
        duration_s=args.duration_s, users=args.users, seed=args.seed
    )
    names = sorted(SCALING_POLICIES) if args.compare else [args.policy]
    kills = tuple(args.kill_at or ())
    reports = []
    for name in names:
        policy = get_policy(name)
        if args.replicas:
            # One knob, per-policy meaning: fixed fleet size for
            # static, fleet-size cap for the adaptive policies.
            if name == "static":
                policy = StaticPolicy(replicas=args.replicas)
            elif name == "least-loaded":
                policy = ReactivePolicy(max_replicas=args.replicas)
            else:
                policy = CostModelPolicy(max_replicas=args.replicas)
        config = ClusterConfig(
            policy=name, router=args.router, kill_at_s=kills
        )
        reports.append(ClusterSim(trace, config, policy=policy).run())
    if args.json:
        if len(reports) == 1:
            payload = reports[0].to_json()
        else:
            payload = {"reports": [r.to_json() for r in reports]}
        print(json.dumps(payload, indent=2))
        return
    print(
        f"cluster: {args.users:,} users, {args.duration_s:.0f}s compressed "
        f"day (diurnal + flash crowds), router={args.router}"
        + (f", kills at {list(kills)}" if kills else "")
    )
    if len(reports) == 1:
        print(reports[0].format())
    else:
        print(format_comparison(reports))


def _cmd_faults(args) -> None:
    from repro.graph.datasets import instantiate_dataset
    from repro.graph.partition import HashPartitioner
    from repro.framework.sampler import MultiHopSampler
    from repro.framework.requests import SampleRequest
    from repro.memstore import (
        FaultInjector,
        PartitionedStore,
        ReliableReadPath,
        ReplicaPlacement,
        RetryPolicy,
    )
    import numpy as np

    graph = instantiate_dataset("ls", max_nodes=args.max_nodes, seed=0)
    placement = ReplicaPlacement(
        num_partitions=args.partitions, replication_factor=args.replicas
    )
    injector = FaultInjector(seed=args.seed, loss_rate=args.loss_rate)
    policy = RetryPolicy(hedge=not args.no_hedge)
    path = ReliableReadPath(
        placement, policy=policy, injector=injector, seed=args.seed
    )
    store = PartitionedStore(
        graph, HashPartitioner(args.partitions), reliability=path
    )
    sampler = MultiHopSampler(
        store, seed=args.seed, worker_partition=0, degraded_ok=True
    )
    if args.kill_partition is not None:
        injector.kill_replica(args.kill_partition, replica=0)
        print(f"killed: partition {args.kill_partition} replica 0")
    roots = np.arange(args.batch_size, dtype=np.int64)
    request = SampleRequest(roots=roots, fanouts=(10, 5))
    sampler.sample(request)
    stats = sampler.fault_stats
    print(f"replicas: {args.replicas}x across {placement.num_domains} domains"
          f"  loss rate: {args.loss_rate:.1%}"
          f"  hedging: {'on' if policy.hedge else 'off'}")
    print(f"reads {stats.reads}  attempts {stats.attempts}"
          f"  retries {stats.retries}  timeouts {stats.timeouts}")
    print(f"hedges {stats.hedges} (won {stats.hedge_wins})"
          f"  failovers {stats.failovers}"
          f"  failed reads {stats.failed_reads}"
          f"  degraded fallbacks {sampler.degraded_fallbacks}")


def _cmd_lint(args) -> None:
    from repro.analysis.lintcli import run_lint

    code = run_lint(args)
    if code:
        raise SystemExit(code)


def _cmd_sampler(_args) -> None:
    from repro.axe.resources import sampler_savings
    from repro.axe.sampling import sampling_speedup

    savings = sampler_savings()
    print(f"cycle advantage (N=100, K=10): "
          f"{sampling_speedup(100, 10):.2f}x (N+K -> N)")
    print(f"LUT saving: {100 * savings['lut_saving']:.1f}% (paper: 91.9%)")
    print(f"register saving: {100 * savings['reg_saving']:.1f}% (paper: 23%)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="LSD-GNN FaaS reproduction experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("footprint", help="Figure 2(a)").set_defaults(fn=_cmd_footprint)
    sub.add_parser("scaling", help="Figure 2(b)").set_defaults(fn=_cmd_scaling)
    mix = sub.add_parser("access-mix", help="Figure 2(c)")
    mix.add_argument("--max-nodes", type=int, default=4000)
    mix.set_defaults(fn=_cmd_access_mix)
    sub.add_parser("e2e", help="Figure 3").set_defaults(fn=_cmd_e2e)
    poc = sub.add_parser("poc", help="Figure 14")
    poc.add_argument("--max-nodes", type=int, default=8000)
    poc.set_defaults(fn=_cmd_poc)
    val = sub.add_parser("validate", help="Figure 15")
    val.add_argument("--max-nodes", type=int, default=8000)
    val.set_defaults(fn=_cmd_validate)
    sub.add_parser("cost", help="Figure 16").set_defaults(fn=_cmd_cost)
    dse = sub.add_parser("dse", help="Figures 17-21")
    dse.add_argument("--gpus-per-12gbps", type=float, default=1.0)
    dse.set_defaults(fn=_cmd_dse)
    sub.add_parser("sampler", help="Tech-2 numbers").set_defaults(fn=_cmd_sampler)
    system = sub.add_parser("system", help="multi-card scaling")
    system.add_argument("--max-nodes", type=int, default=6000)
    system.set_defaults(fn=_cmd_system)
    sub.add_parser("service", help="Challenge-1 latency").set_defaults(fn=_cmd_service)
    serve = sub.add_parser("serve", help="online SLO-aware serving gateway")
    serve.add_argument("--duration-s", type=float, default=0.5,
                       help="arrival window in virtual seconds")
    serve.add_argument("--max-nodes", type=int, default=2000)
    serve.add_argument("--overload", type=float, default=1.0,
                       help="offered load as a multiple of provisioned")
    serve.add_argument("--fail-hardware-at", type=float, default=None,
                       help="kill the AxE backend this far into the run")
    serve.add_argument("--no-functional", action="store_true",
                       help="timing-only backends (skip real sampling)")
    serve.add_argument("--seed", type=int, default=0)
    serve.set_defaults(fn=_cmd_serve)
    cluster = sub.add_parser(
        "cluster", help="multi-replica cluster with cost-driven autoscaling"
    )
    cluster.add_argument("--policy", type=str, default="cost",
                         choices=["static", "least-loaded", "cost"],
                         help="scaling policy")
    cluster.add_argument("--router", type=str, default="least-loaded",
                         choices=["consistent-hash", "least-loaded"],
                         help="request routing policy")
    cluster.add_argument("--replicas", type=int, default=0,
                         help="fleet size (static) or fleet-size cap "
                              "(adaptive policies); 0 = policy default")
    cluster.add_argument("--duration-s", type=float, default=10.0,
                         help="compressed-day window in virtual seconds")
    cluster.add_argument("--users", type=int, default=1_000_000,
                         help="user population behind the trace")
    cluster.add_argument("--kill-at", type=float, action="append",
                         default=None, metavar="T",
                         help="kill the most-loaded replica at this "
                              "virtual time (repeatable)")
    cluster.add_argument("--compare", action="store_true",
                         help="run all scaling policies over the same "
                              "trace and print the comparison table")
    cluster.add_argument("--seed", type=int, default=0)
    cluster.add_argument("--json", action="store_true",
                         help="emit the report(s) as JSON")
    cluster.set_defaults(fn=_cmd_cluster)
    faults = sub.add_parser(
        "faults", help="fault-tolerant remote-memory path demo"
    )
    faults.add_argument("--max-nodes", type=int, default=2000)
    faults.add_argument("--partitions", type=int, default=4)
    faults.add_argument("--replicas", type=int, default=2,
                        help="replication factor per partition")
    faults.add_argument("--loss-rate", type=float, default=0.0,
                        help="per-request loss probability")
    faults.add_argument("--kill-partition", type=int, default=None,
                        help="kill this partition's primary replica up front")
    faults.add_argument("--no-hedge", action="store_true",
                        help="disable hedged second reads")
    faults.add_argument("--batch-size", type=int, default=48)
    faults.add_argument("--seed", type=int, default=0)
    faults.set_defaults(fn=_cmd_faults)
    lint = sub.add_parser(
        "lint",
        help="invariant linter: file and whole-program rules in one pass",
    )
    add_lint_arguments(lint)
    lint.set_defaults(fn=_cmd_lint)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    args.fn(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
