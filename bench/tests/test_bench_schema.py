"""The benchmark's own checks: ``python3 -m pytest bench/tests``.

One ``--smoke --traced`` run of every workload (about ten seconds)
feeds most of them.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import metrics as registry  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args, cwd=ROOT, **kwargs):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, **kwargs,
    )


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "smoke.json"
    done = run("--smoke", "--traced", "--seed", "3", "--json", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(out.read_text())


def test_benchmark_json_matches_the_registry():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["bench"] and SPEC["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in registry.END_TO_END
    ]
    assert SPEC["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in registry.PER_LAYER
    ]


def test_benchmark_json_is_inside_the_limits():
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(UNIT.fullmatch(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    assert all(m["better"] in ("lower", "higher") for m in SPEC["end_to_end"] + SPEC["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_every_workload_ran_clean_in_both_kinds_of_run(report):
    assert not report["failed"] and not report["skipped"]
    seen = {(run["workload"], run["traced"]) for run in report["runs"]}
    assert seen == {(name, traced) for name in workloads.WORKLOADS for traced in (False, True)}
    for record in report["runs"]:
        assert record["correct"] and record["failed"] == 0 and record["attempted"] >= 1
        assert record["checks"] and all(record["checks"].values())
    assert set(report["fingerprint"]) == {
        "usable_cores", "python", "numpy", "compiled_available", "git_rev"
    }


def test_every_metric_is_reported_with_its_unit(report):
    produced = {}
    for record in report["runs"]:
        for name, metric in record["metrics"].items():
            assert metric["unit"] == registry.BY_NAME[name].unit
            produced.setdefault(name, set()).add(record["traced"])
        if not record["traced"]:
            # Never 0: the driver divides by these.
            for m in registry.END_TO_END:
                assert record["metrics"][m.name]["value"] > 0
    assert set(produced) == set(registry.BY_NAME)
    for m in registry.END_TO_END:
        assert produced[m.name] == {False}
    for m in registry.OUTCOME:
        assert produced[m.name] == {False, True}
    for m in registry.TRACED:
        assert produced[m.name] == {True}


def test_exact_metrics_agree_between_traced_and_untraced(report):
    by_kind = {(r["workload"], r["traced"]): r["metrics"] for r in report["runs"]}
    for name in workloads.WORKLOADS:
        for m in registry.OUTCOME:
            if m.kind == registry.EXACT and m.name in by_kind[name, False]:
                assert by_kind[name, False][m.name]["value"] == by_kind[name, True][m.name]["value"]


def test_self_times_add_up_to_the_top_level_span(report):
    for record in report["runs"]:
        if record["traced"]:
            segment = record["metrics"]["bench.segment_s"]
            for self_sum, top in zip(segment["self_sum_s"], segment["top_span_s"]):
                assert abs(self_sum - top) <= 0.05 * top, record["workload"]


def test_result_line_has_exactly_the_declared_metrics():
    for trace, declared in (("0", SPEC["end_to_end"]), ("1", SPEC["per_layer"])):
        done = run("--workload", "axe_sample", "--smoke", "--seed", "5", "--trace", trace)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert {n: m["unit"] for n, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in declared
        }
        assert all(set(m) == {"value", "unit"} for m in result["metrics"].values())


def test_refuses_more_shard_workers_than_cores():
    one_core = sorted(os.sched_getaffinity(0))[:1]
    done = run(
        "--workload", "sample_sharded", "--smoke", "--trace", "0",
        preexec_fn=lambda: os.sched_setaffinity(0, one_core),
    )
    assert done.returncode == 3
    assert "SKIPPED sample_sharded" in done.stderr
    assert not done.stdout.strip()


def test_no_result_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = run("--workload", "sample_wide", "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_compare_statuses(report, tmp_path):
    base = tmp_path / "a.json"
    base.write_text(json.dumps(report))
    assert compare.main([str(base), str(base)]) == 0

    def changed(workload, traced, name, factor):
        doc = json.loads(json.dumps(report))
        for record in doc["runs"]:
            if (record["workload"], record["traced"]) == (workload, traced):
                metric = record["metrics"][name]
                metric["value"] *= factor
                if "samples" in metric:
                    metric["samples"] = [s * factor for s in metric["samples"]]
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def status(path, workload, traced, name):
        (row,) = [
            r for r in compare.compare(str(base), path)
            if r[:3] == (workload, "traced" if traced else "untraced", name)
        ]
        return row[-1]

    drifted = changed("train_cached", False, "gnn.final_loss", 1.0000001)
    assert status(drifted, "train_cached", False, "gnn.final_loss") == "exact-mismatch"
    assert compare.main([str(base), drifted]) == 1
    bigger = changed("axe_sample", False, "peak_rss_mb", 1.5)
    assert status(bigger, "axe_sample", False, "peak_rss_mb") == "regressed"
    assert compare.main([str(base), bigger]) == 1
    smaller = changed("axe_sample", False, "peak_rss_mb", 0.5)
    assert status(smaller, "axe_sample", False, "peak_rss_mb") == "ok"
    layer = changed("serve_open", True, "serving.gateway_s", 3.0)
    assert status(layer, "serve_open", True, "serving.gateway_s") == "info"
    assert compare.main([str(base), layer]) == 0


def test_compare_leaves_noisy_interleaved_runs_unresolved():
    metric = registry.BY_NAME["throughput_per_s"]
    base = {"value": 100.0, "samples": [60.0, 80.0, 100.0, 120.0, 140.0]}
    interleaved = {"value": 70.0, "samples": [40.0, 55.0, 70.0, 100.0, 130.0]}
    apart = {"value": 40.0, "samples": [30.0, 35.0, 40.0, 45.0, 50.0]}
    assert compare.judge(metric, base, interleaved) == "unresolved"
    assert compare.judge(metric, base, apart) == "regressed"
    assert compare.judge(metric, apart, base) == "ok"
