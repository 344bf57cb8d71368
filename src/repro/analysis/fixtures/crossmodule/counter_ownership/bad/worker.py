# repro-module: repro/gnn/stats_worker.py
"""BAD: mutates another module's counter fields directly.

The receiver's type is only known through the cross-module factory or
the annotation of an imported class, so no single file can tell that
``s`` and ``stats`` are FaultStats owned elsewhere.
"""

from repro.memstore.faults import FaultStats, make_stats


def run_once():
    s = make_stats()
    s.failed_reads += 1  # bypasses the owner's recording helper
    return s


def reset(stats: FaultStats) -> None:
    stats.failed_reads = 0  # a plain store is a mutation too
