"""Engine-level tests: file walking, module-path derivation, the
``# repro-module:`` marker override, and the one-pass run."""

from pathlib import Path

import repro
from repro.analysis import derive_module_path, lint, python_files
from repro.analysis.engine import FIXTURE_PREFIX

SRC_ROOT = Path(repro.__file__).parent


def lint_paths(paths):
    """What ``repro lint PATHS`` runs: the walker's files, one pass."""
    return lint({str(p): p.read_text(encoding="utf-8") for p in python_files(paths)})


# ------------------------------------------------------ module-path mapping
def test_derive_module_path_anchors_on_repro():
    assert derive_module_path("/x/src/repro/units.py") == "repro/units.py"
    assert (
        derive_module_path("src/repro/memstore/store.py")
        == "repro/memstore/store.py"
    )


def test_derive_module_path_without_anchor_keeps_name():
    assert derive_module_path("/tmp/scratch/thing.py") == "thing.py"


def test_marker_overrides_derived_path(tmp_path):
    target = tmp_path / "scratch.py"
    target.write_text(
        "# repro-module: repro/serving/stamp.py\nimport time\n",
        encoding="utf-8",
    )
    result = lint_paths([target])
    assert {f.rule for f in result.findings} == {"det-wallclock"}
    assert all(f.path == "repro/serving/stamp.py" for f in result.findings)


# --------------------------------------------------------------- the walker
def test_walker_skips_fixtures_and_pycache():
    files = python_files([SRC_ROOT])
    assert files, "walker found no files under src/repro"
    for path in files:
        module = derive_module_path(str(path))
        assert not module.startswith(FIXTURE_PREFIX), module
        assert "__pycache__" not in str(path)


def test_expand_paths_accepts_file_and_directory(tmp_path):
    (tmp_path / "a.py").write_text("x = 1\n", encoding="utf-8")
    sub = tmp_path / "pkg"
    sub.mkdir()
    (sub / "b.py").write_text("y = 2\n", encoding="utf-8")
    (sub / "notes.txt").write_text("skip me\n", encoding="utf-8")
    found = python_files([tmp_path / "a.py", sub])
    assert sorted(p.name for p in found) == ["a.py", "b.py"]


# ------------------------------------------------------------ the one pass
def test_run_applies_file_and_project_rules_and_suppressions(tmp_path):
    """One pass reports a file-rule and a project-rule finding side by
    side, and an inline suppression covers either kind."""
    (tmp_path / "stats.py").write_text(
        "# repro-module: repro/memstore/faults.py\n"
        "class FaultStats:\n"
        "    def __init__(self):\n"
        "        self.failed_reads = 0\n",
        encoding="utf-8",
    )
    worker = tmp_path / "worker.py"
    body = (
        "# repro-module: repro/gnn/tworker.py\n"
        "import random\n"
        "from repro.memstore.faults import FaultStats\n"
        "\n"
        "\n"
        "def run_once():\n"
        "    s = FaultStats()\n"
        "    s.failed_reads += 1{allow}\n"
        "    return s\n"
    )
    worker.write_text(body.format(allow=""), encoding="utf-8")
    result = lint_paths([tmp_path])
    assert (result.files_scanned, result.modules) == (2, 2)
    assert [(f.rule, f.path, f.line) for f in result.findings] == [
        ("det-rng", "repro/gnn/tworker.py", 2),
        ("counter-ownership", "repro/gnn/tworker.py", 8),
    ]
    assert result.suppressed == []

    worker.write_text(
        body.format(allow="  # repro: allow[counter-ownership] test"),
        encoding="utf-8",
    )
    result = lint_paths([tmp_path])
    assert [f.rule for f in result.findings] == ["det-rng"]
    assert [f.rule for f in result.suppressed] == ["counter-ownership"]


# -------------------------------------------------------------- error paths
def test_syntax_error_becomes_parse_error_finding(tmp_path):
    target = tmp_path / "broken.py"
    target.write_text("def broken(:\n", encoding="utf-8")
    result = lint_paths([target])
    assert [f.rule for f in result.findings] == ["parse-error"]


def test_findings_sorted_by_location():
    source = (
        "import random\n"
        "import time\n"
        "\n"
        "def f():\n"
        "    return 8 * 1024 ** 3\n"
    )
    result = lint({"repro/framework/sampler.py": source})
    locations = [(f.line, f.col) for f in result.findings]
    assert locations == sorted(locations)
    assert len(result.findings) == 3


# ------------------------------------------------------------- the budget
def test_analysis_package_stays_under_3000_lines():
    """The linter serves the package, not the other way round: it is
    held under a line budget (fixtures included) so a new rule pays for
    itself by sharing the project graph's one origin resolver."""
    lines = sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in (SRC_ROOT / "analysis").rglob("*.py")
    )
    assert lines < 3000, lines
