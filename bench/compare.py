"""Compare two benchmark reports: ``python3 bench/compare.py A.json B.json``.

``A`` is the baseline and ``B`` the candidate, both written by
``bench/run.py --json``. One row per (workload, run kind, metric):

* ``ok`` -- an exact metric repeats bit for bit, or a bounded host-time
  metric's median is not worse than the baseline's by more than its bound;
* ``regressed`` -- it is worse by more than the bound (and by more than
  the metric's absolute floor);
* ``unresolved`` -- the segment-to-segment spread is wider than the
  bound and the two runs' samples interleave, so the runs cannot say;
* ``exact-mismatch`` -- an exact metric differs at all;
* ``info`` -- a host-time layer metric, which has no bound.

Exits 1 if any row is ``regressed`` or ``exact-mismatch``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import metrics as registry
from harness import quartiles

FAILURES = ("regressed", "exact-mismatch")


def load(path: str) -> Dict[Tuple[str, bool], Dict[str, object]]:
    """Runs of a report (or a single run's record), by (workload, traced)."""
    document = json.loads(Path(path).read_text())
    runs = document["runs"] if "runs" in document else [document]
    return {(run["workload"], run["traced"]): run for run in runs}


def worsening(metric: registry.Metric, base: float, new: float) -> float:
    """Share of ``base`` by which ``new`` is worse (negative = better)."""
    change = (new - base) / abs(base) if base else float(new != base)
    return change if metric.better == "lower" else -change


def judge(metric: registry.Metric, base: Dict[str, object], new: Dict[str, object]) -> str:
    a, b = base["value"], new["value"]
    if metric.kind == registry.EXACT:
        return "ok" if a == b else "exact-mismatch"
    if metric.bound is None:
        return "info"
    worse = worsening(metric, a, b)
    if abs(b - a) <= metric.floor:
        return "ok"
    a_samples = base.get("samples", [a])
    b_samples = new.get("samples", [b])
    spread = max(q3 - q1 for q1, _, q3 in (quartiles(a_samples), quartiles(b_samples)))
    if spread <= metric.bound * abs(a):
        return "regressed" if worse > metric.bound else "ok"
    # Too noisy for the medians to settle it: only a clean separation
    # of every sample counts.
    sign = 1 if metric.better == "lower" else -1
    if max(sign * s for s in b_samples) < min(sign * s for s in a_samples):
        return "ok"
    if worse > metric.bound and min(sign * s for s in b_samples) > max(sign * s for s in a_samples):
        return "regressed"
    return "unresolved"


def compare(base_path: str, new_path: str) -> List[Tuple[str, ...]]:
    base_runs, new_runs = load(base_path), load(new_path)
    rows = []
    for key in sorted(base_runs.keys() & new_runs.keys()):
        workload, traced = key
        base_metrics, new_metrics = base_runs[key]["metrics"], new_runs[key]["metrics"]
        for name in base_metrics.keys() & new_metrics.keys():
            metric = registry.BY_NAME[name]
            a, b = base_metrics[name], new_metrics[name]
            bound = "exact" if metric.kind == registry.EXACT else (
                "-" if metric.bound is None else f"{metric.bound:.2f}"
            )
            rows.append((
                workload,
                "traced" if traced else "untraced",
                name,
                f"{a['value']:.6g}",
                f"{b['value']:.6g}",
                f"{100 * worsening(metric, a['value'], b['value']):+.1f}%",
                bound,
                judge(metric, a, b),
            ))
    order = {m.name: i for i, m in enumerate(registry.END_TO_END + registry.PER_LAYER)}
    rows.sort(key=lambda row: (row[0], row[1], order[row[2]]))
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    rows = compare(*argv)
    if not rows:
        print("compare: the two reports share no (workload, run kind)", file=sys.stderr)
        return 2
    header = ("workload", "run", "metric", "A", "B", "worse by", "bound", "status")
    widths = [max(len(row[i]) for row in rows + [header]) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    tally = {status: sum(row[-1] == status for row in rows) for status in
             ("ok", "info", "unresolved") + FAILURES}
    print(", ".join(f"{count} {status}" for status, count in tally.items()))
    return 1 if any(tally[status] for status in FAILURES) else 0


if __name__ == "__main__":
    sys.exit(main())
