# repro-module: repro/gnn/stats_worker.py
"""GOOD: counters advance only through the owner's recording helper."""

from repro.framework.run_stats import RunStats, make_stats


def run_once():
    s = make_stats()
    s.record_widget()
    return s


def report(stats: RunStats) -> int:
    return stats.widget_count  # reading a counter is always fine
