"""The repo benchmark: seven workloads, end-to-end and per-layer metrics.

Two ways to call it, both from the root of a checkout::

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 bench/run.py [--workload W ...] [--seed N] [--traced] [--smoke] [--json OUT]

The first (``--trace`` given) measures one workload in this process and
ends with one JSON line: the end-to-end metrics of an untraced run
(``--trace 0``) or the per-layer metrics of a traced one (``--trace 1``).
The second runs each chosen workload that way in a fresh subprocess --
untraced, and traced as well with ``--traced`` -- prints every metric by
name and writes the detailed records to ``OUT`` for ``compare.py``.

See ``bench/README.md`` for the workloads, the metrics and their bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SMOKE_SECONDS = 0.2


def _benchmark_json() -> Dict[str, object]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", help="repeatable; default: all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="length of the timed region")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="measure one workload here")
    parser.add_argument("--traced", action="store_true", help="also make the traced runs")
    parser.add_argument("--smoke", action="store_true", help="every workload at ~1/20 size")
    parser.add_argument("--json", help="write the detailed record(s) to this file")
    return parser.parse_args(argv)


# ---------------------------------------------------------------- one workload
def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def print_record(record: Dict[str, object]) -> None:
    mode = "traced" if record["traced"] else "untraced"
    print(
        f"== {record['workload']} seed={record['seed']} {mode}: "
        f"{record['segments']} segments in a {record['seconds']:g} s region; "
        f"item = {record['item']}; op = {record['op']}"
    )
    for name, metric in record["metrics"].items():
        spread = (
            f"  [q1 {metric['q1']:.6g}, q3 {metric['q3']:.6g}, n {metric['n']}]"
            if "q1" in metric
            else ""
        )
        print(f"  {name:34s} {metric['value']:>14.6g} {metric['unit']:6s} {metric['kind']}{spread}")
    for name, value in record["notes"].items():
        print(f"  note {name}: {value}")
    checks = ", ".join(f"{k}={'ok' if v else 'FAILED'}" for k, v in record["checks"].items())
    print(f"  ops attempted {record['attempted']}, failed {record['failed']}; checks: {checks}")


def run_one(args: argparse.Namespace) -> int:
    """Measure one workload in this process; ends with the result line."""
    if len(args.workload or ()) != 1:
        print("bench: --trace measures exactly one --workload", file=sys.stderr)
        return 2
    import harness
    import metrics as registry
    import workloads

    name = args.workload[0]
    if name not in workloads.WORKLOADS:
        print(f"bench: unknown workload {name!r}", file=sys.stderr)
        return 2
    cls = workloads.load(name)
    cores = usable_cores()
    if cls.WORKERS > cores:
        # A pool wider than the host inverts every worker "speed-up";
        # better no number than that one.
        print(
            f"bench: SKIPPED {name}: it runs {cls.WORKERS} shard workers and this "
            f"host has {cores} usable core(s); refusing to record an inverted number",
            file=sys.stderr,
        )
        return 3
    seconds = args.seconds if args.seconds is not None else (
        SMOKE_SECONDS if args.smoke else float(_benchmark_json()["run_seconds"])
    )
    record = harness.measure(cls, args.seed, seconds, bool(args.trace), args.smoke)
    print_record(record)
    if args.json:
        Path(args.json).write_text(json.dumps(record, indent=1))
    wanted = registry.PER_LAYER if args.trace else registry.END_TO_END
    result = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        # A layer a workload never enters did no work there: 0.
        "metrics": {
            m.name: {
                "value": record["metrics"].get(m.name, {"value": 0.0})["value"],
                "unit": m.unit,
            }
            for m in wanted
        },
    }
    print(json.dumps(result))
    return 0 if record["correct"] else 1


# --------------------------------------------------------------- all workloads
def fingerprint() -> Dict[str, object]:
    """What the host-time numbers depend on besides the code."""
    import numpy
    from repro.framework.kernels import compiled_available

    rev = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        if done.returncode == 0:
            rev = done.stdout.strip()
    return {
        "usable_cores": usable_cores(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        # False here means the NumPy kernel tier was measured, not numba.
        "compiled_available": compiled_available(),
        "git_rev": rev,
    }


def run_all(args: argparse.Namespace) -> int:
    """Each chosen workload in a fresh subprocess; prints and records all."""
    names = args.workload or [w["name"] for w in _benchmark_json()["workloads"]]
    runs: List[Dict[str, object]] = []
    skipped: List[str] = []
    failed: List[str] = []
    with tempfile.TemporaryDirectory() as scratch:
        for name in names:
            for trace in (0, 1) if args.traced else (0,):
                out = Path(scratch) / f"{name}.{trace}.json"
                command = [
                    sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
                    "--seed", str(args.seed), "--trace", str(trace), "--json", str(out),
                ]
                if args.seconds is not None:
                    command += ["--seconds", str(args.seconds)]
                if args.smoke:
                    command.append("--smoke")
                done = subprocess.run(command, capture_output=True, text=True)
                sys.stderr.write(done.stderr)
                if done.returncode == 3:
                    skipped.append(f"{name} trace={trace}")
                    continue
                # All but the machine-readable last line.
                sys.stdout.write("".join(done.stdout.splitlines(keepends=True)[:-1]))
                if out.exists():
                    runs.append(json.loads(out.read_text()))
                if done.returncode != 0:
                    failed.append(f"{name} trace={trace} (exit {done.returncode})")
    report = {"fingerprint": fingerprint(), "runs": runs, "skipped": skipped, "failed": failed}
    print(f"host: {json.dumps(report['fingerprint'])}")
    for line in skipped:
        print(f"SKIPPED: {line}")
    for line in failed:
        print(f"FAILED: {line}")
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=1))
    return 1 if failed else 0


def stop_children() -> None:
    """Stop every process this one started and wait until each has ended.

    The workloads close their own pools; this is for the paths that do
    not get that far, and for the one helper nobody closes: creating a
    ``SharedMemory`` block starts multiprocessing's resource tracker,
    which otherwise ends only once it sees this process gone -- a moment
    *after* the run, when the caller already counts what is left.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    tracker = resource_tracker._resource_tracker
    fd, pid = getattr(tracker, "_fd", None), getattr(tracker, "_pid", None)
    if fd is not None:
        # Closing our end of its pipe is what tells the tracker to end.
        os.close(fd)
        tracker._fd = None
        if pid is not None:
            os.waitpid(pid, 0)
            tracker._pid = None


def main(argv: Optional[List[str]] = None) -> int:
    args = parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # A terminated run unwinds like any other, so the clean-up below runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return run_one(args) if args.trace is not None else run_all(args)
    finally:
        stop_children()


if __name__ == "__main__":
    sys.exit(main())
