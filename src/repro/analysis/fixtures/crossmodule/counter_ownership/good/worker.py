# repro-module: repro/gnn/stats_worker.py
"""GOOD: counters advance only through the owner's recording helper."""

from repro.memstore.faults import FaultStats, make_stats


def run_once():
    s = make_stats()
    s.record_failure()
    return s


def report(stats: FaultStats) -> int:
    return stats.failed_reads  # reading a counter is always fine
