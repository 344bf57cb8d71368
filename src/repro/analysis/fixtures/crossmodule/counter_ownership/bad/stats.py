# repro-module: repro/memstore/faults.py
"""Stands in for the owner module of the registered FaultStats."""


class FaultStats:
    def __init__(self):
        self.failed_reads = 0

    def record_failure(self):
        self.failed_reads += 1


def make_stats():
    return FaultStats()
