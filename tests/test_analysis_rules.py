"""Per-rule tests: every file rule fires on its bad fixture, stays quiet
on its good fixture, and handles the edge cases the fixtures don't show
(the project rules' fixture pairs are in test_analysis_project.py)."""

import pytest

from repro.analysis import ProjectRule, all_rules, lint
from repro.analysis.lintcli import fixture_files

#: The file rules (meta rules are engine-emitted and excluded).
RULE_IDS = [
    "det-rng",
    "det-wallclock",
    "except-swallow",
    "units-magic",
]


def fixture_path(rule_id, kind):
    [path] = fixture_files(rule_id, kind)
    return path


def rules_fired(source, module_path=None, path="<memory>"):
    result = lint({module_path or path: source})
    return {finding.rule for finding in result.findings}


# ----------------------------------------------------------- fixture pack
@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_bad_fixture_fires(rule_id):
    path = fixture_path(rule_id, "bad")
    fired = rules_fired(path.read_text(encoding="utf-8"), path=str(path))
    assert rule_id in fired


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_good_fixture_is_clean(rule_id):
    path = fixture_path(rule_id, "good")
    fired = rules_fired(path.read_text(encoding="utf-8"), path=str(path))
    assert rule_id not in fired


def test_every_registered_rule_documented():
    for rule in all_rules():
        assert rule.title and rule.rationale, rule.rule_id


# ----------------------------------------------------------- det-wallclock
def test_wallclock_flags_from_import_and_alias():
    fired = rules_fired(
        "from time import perf_counter\n",
        module_path="repro/framework/sampler.py",
    )
    assert "det-wallclock" in fired
    fired = rules_fired(
        "import time as clock\n\n\ndef f():\n    return clock.monotonic()\n",
        module_path="repro/framework/sampler.py",
    )
    assert "det-wallclock" in fired


def test_wallclock_flags_bench_module():
    # No module is exempt: timing lives in bench/, outside repro.
    source = "import time\n\n\ndef f():\n    return time.perf_counter()\n"
    assert "det-wallclock" in rules_fired(source, module_path="repro/bench.py")


def test_wallclock_allows_timedelta_import():
    fired = rules_fired(
        "from datetime import timedelta\n",
        module_path="repro/framework/sampler.py",
    )
    assert "det-wallclock" not in fired


# ----------------------------------------------------------------- det-rng
def test_rng_flags_seed_none_kwarg():
    fired = rules_fired(
        "import numpy as np\nrng = np.random.default_rng(seed=None)\n",
        module_path="repro/framework/sampler.py",
    )
    assert "det-rng" in fired


def test_rng_allows_seeded_variable():
    fired = rules_fired(
        "import numpy as np\n\n\ndef f(seed):\n"
        "    return np.random.default_rng(seed)\n",
        module_path="repro/framework/sampler.py",
    )
    assert "det-rng" not in fired


def test_rng_flags_legacy_module_functions():
    fired = rules_fired(
        "import numpy as np\nx = np.random.rand(3)\n",
        module_path="repro/gnn/train.py",
    )
    assert "det-rng" in fired


# ------------------------------------------------------------- units-magic
def test_units_allowed_inside_units_module():
    source = "GIGA = 1_000_000_000\nrate = 16 * 1e9 / 8.0\n"
    assert rules_fired(source, module_path="repro/units.py") == set()


def test_units_flags_pow_1024():
    fired = rules_fired(
        "size = 4 * 1024 ** 3\n", module_path="repro/memstore/layout.py"
    )
    assert "units-magic" in fired


def test_units_ignores_non_conversion_ints():
    fired = rules_fired(
        "batch = max(4 * rate, 1024)\nmask = word << 20\n",
        module_path="repro/riscv/isa.py",
    )
    assert "units-magic" not in fired


# ------------------------------------------------------- counter-ownership
FAULTS_SRC = """\
class FaultStats:
    failed_reads: int = 0

    def record_failure(self):
        self.failed_reads += 1
"""


def ownership_findings(module_path, source):
    """counter-ownership over the registered FaultStats owner + one module."""
    sources = {"repro/memstore/faults.py": FAULTS_SRC}
    sources[module_path] = sources.get(module_path, "") + source
    return lint(sources).findings


def test_accounting_allows_owner_module():
    source = "\ndef reset(stats: FaultStats):\n    stats.failed_reads = 0\n"
    assert ownership_findings("repro/memstore/faults.py", source) == []


def test_accounting_flags_reset_outside_owner():
    source = (
        "from repro.memstore.faults import FaultStats\n\n\n"
        "def reset(stats: FaultStats):\n    stats.failed_reads = 0\n"
    )
    findings = ownership_findings("repro/serving/gateway.py", source)
    assert [(f.rule, f.path, f.line) for f in findings] == [
        ("counter-ownership", "repro/serving/gateway.py", 5)
    ]


def test_accounting_ignores_unrelated_attributes():
    # Ownership follows the receiver's type: a non-counter attribute of
    # a counter class and a counter-named attribute of anything else
    # are both fine.
    source = (
        "from repro.memstore.faults import FaultStats\n\n\n"
        "def f(stats: FaultStats, obj):\n"
        "    stats.label = 3\n"
        "    obj.failed_reads += 1\n"
    )
    assert ownership_findings("repro/serving/gateway.py", source) == []


# ---------------------------------------------------------- except-swallow
def test_bare_except_flagged_everywhere():
    source = "try:\n    f()\nexcept:\n    handle()\n"
    fired = rules_fired(source, module_path="repro/gnn/train.py")
    assert "except-swallow" in fired


def test_silent_handler_ok_outside_fault_paths():
    source = "try:\n    f()\nexcept ValueError:\n    pass\n"
    fired = rules_fired(source, module_path="repro/gnn/train.py")
    assert "except-swallow" not in fired


def test_recording_handler_ok_on_fault_path():
    source = (
        "try:\n    f()\nexcept ValueError:\n    stats.record_failure()\n"
    )
    fired = rules_fired(source, module_path="repro/memstore/faults.py")
    assert "except-swallow" not in fired


def test_wallclock_flags_event_modules():
    # Event-driven modules take time from sim.now; det-wallclock covers
    # them like every other module (no separate simulated-clock rule).
    source = "import time\n"
    for module_path in (
        "repro/serving/scheduler.py",
        "repro/axe/events.py",
        "repro/gnn/train.py",
    ):
        assert rules_fired(source, module_path=module_path) == {"det-wallclock"}


# --------------------------------------------------------------- meta rules
def test_parse_error_is_a_finding():
    result = lint({"x.py": "def broken(:\n"})
    assert [f.rule for f in result.findings] == ["parse-error"]


def test_explain_fixture_pairs_exist_for_rule_pack():
    checked = [
        rule for rule in all_rules()
        if rule.rule_id in RULE_IDS or isinstance(rule, ProjectRule)
    ]
    assert len(checked) == len(RULE_IDS) + 3
    for rule in checked:
        for kind in ("bad", "good"):
            assert fixture_files(rule.rule_id, kind), (rule.rule_id, kind)


def test_fixture_module_marker_respected():
    path = fixture_path("det-wallclock", "bad")
    result = lint({str(path): path.read_text(encoding="utf-8")})
    assert result.findings, "marker should scope fixture into serving/"
    assert all(
        f.path == "repro/serving/stamp_fixture.py" for f in result.findings
    )
