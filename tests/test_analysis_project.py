"""Project-rule tests: the crossmodule fixture pairs and the file
rules' provable blindness to them."""

from pathlib import Path

import repro
from repro.analysis import all_project_rules, lint

SRC_ROOT = Path(repro.__file__).parent
FIXTURES = SRC_ROOT / "analysis" / "fixtures" / "crossmodule"

RULE_DIRS = ["pin_discipline", "rng_provenance", "counter_ownership"]


def load_sources(directory):
    """Fixture dir -> {file path: source}; the markers name the modules."""
    return {
        str(path): path.read_text(encoding="utf-8")
        for path in sorted(directory.glob("*.py"))
    }


def run_fixture(rule_dir, kind):
    """Every rule's findings over one fixture project."""
    sources = load_sources(FIXTURES / rule_dir / kind)
    assert len(sources) >= 2, "crossmodule fixtures must span files"
    return lint(sources).findings


# ----------------------------------------------------- fixture pairs
def test_pin_discipline_fixture_pair():
    findings = run_fixture("pin_discipline", "bad")
    assert [f.rule for f in findings] == ["pin-discipline"]
    # The unpinned read is flagged where it happens — in the helper
    # module — but attributed to the sampler entry point.
    assert findings[0].path == "repro/framework/hop_walker.py"
    assert "HopSampler.sample" in findings[0].message
    assert run_fixture("pin_discipline", "good") == []


def test_rng_provenance_fixture_pair():
    findings = run_fixture("rng_provenance", "bad")
    assert [f.rule for f in findings] == ["rng-provenance"]
    assert findings[0].path == "repro/gnn/rng_trainer.py"
    assert "hash" in findings[0].message
    assert run_fixture("rng_provenance", "good") == []


def test_counter_ownership_fixture_pair():
    findings = run_fixture("counter_ownership", "bad")
    # The factory-typed ``+=`` and the annotation-typed plain store (the
    # violation the retired per-file acct-mutation fixture showed).
    assert [f.rule for f in findings] == ["counter-ownership"] * 2
    assert {f.path for f in findings} == {"repro/gnn/stats_worker.py"}
    assert [f.snippet.split("  #")[0] for f in findings] == [
        "s.failed_reads += 1",
        "stats.failed_reads = 0",
    ]
    assert run_fixture("counter_ownership", "good") == []


def test_per_file_engine_cannot_flag_bad_fixtures():
    """Each bad fixture file is clean in isolation, project rules
    included: the violation only exists in the cross-module view, which
    is the point of the tier."""
    checked = 0
    for rule_dir in RULE_DIRS:
        for path in sorted((FIXTURES / rule_dir / "bad").glob("*.py")):
            result = lint({str(path): path.read_text(encoding="utf-8")})
            assert result.findings == [], (
                f"{path} should be per-file clean but got "
                f"{[f.to_dict() for f in result.findings]}"
            )
            checked += 1
    assert checked >= 6


def test_all_project_rules_registered():
    ids = {rule.rule_id for rule in all_project_rules()}
    assert ids == {
        "pin-discipline",
        "rng-provenance",
        "counter-ownership",
    }


# ----------------------------------------------------- the origin resolver
FAULTS = """\
class FaultStats:
    def __init__(self):
        self.failed_reads = 0
"""

RUNNER = """\
from repro.memstore.faults import FaultStats


class Runner:
    def __init__(self, stats: FaultStats):
        self.stats = stats

    def bump(self):
        self.stats.failed_reads += 1


def bump_through(runner: Runner):
    runner.stats.failed_reads += 1


def pick(a: FaultStats, b, flag):
    chosen = a if flag else b
    chosen.failed_reads = 0
"""


def test_resolver_types_attributes_and_branches():
    """One resolver serves every rule: ``self.stats`` is typed by the
    annotated parameter of the method that assigns it, ``runner.stats``
    through the declared class of ``runner``, and a conditional by
    either arm."""
    findings = lint(
        {"repro/memstore/faults.py": FAULTS, "repro/gnn/runner.py": RUNNER}
    ).findings
    assert [(f.rule, f.path, f.line) for f in findings] == [
        ("counter-ownership", "repro/gnn/runner.py", line) for line in (9, 13, 18)
    ]
