# repro-module: repro/gnn/stats_worker.py
"""BAD: mutates another module's counter fields directly.

The receiver's type is only known through the cross-module factory or
the annotation of an imported class, so no single file can tell that
``s`` and ``stats`` are RunStats owned elsewhere.
"""

from repro.framework.run_stats import RunStats, make_stats


def run_once():
    s = make_stats()
    s.widget_count += 1  # bypasses the owner's recording helper
    return s


def reset(stats: RunStats) -> None:
    stats.widget_count = 0  # a plain store is a mutation too
