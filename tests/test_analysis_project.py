"""Project-rule tests: the crossmodule fixture pairs and the file
rules' provable blindness to them."""

from pathlib import Path

import repro
from repro.analysis import analyze_source
from repro.analysis.project import build_project_from_sources
from repro.analysis.rules import all_project_rules
from repro.analysis.rules.crossmodule.counters import CounterOwnershipRule
from repro.analysis.rules.crossmodule.pins import PinDisciplineRule
from repro.analysis.rules.crossmodule.rng import RngProvenanceRule

SRC_ROOT = Path(repro.__file__).parent
FIXTURES = SRC_ROOT / "analysis" / "fixtures" / "crossmodule"

RULE_DIRS = {
    "pin_discipline": PinDisciplineRule,
    "rng_provenance": RngProvenanceRule,
    "counter_ownership": CounterOwnershipRule,
}


def load_sources(directory):
    """Fixture dir -> {file path: source}; the markers name the modules."""
    return {
        str(path): path.read_text(encoding="utf-8")
        for path in sorted(directory.glob("*.py"))
    }


def run_fixture(rule_dir, kind):
    rule_cls = RULE_DIRS[rule_dir]
    sources = load_sources(FIXTURES / rule_dir / kind)
    assert len(sources) >= 2, "crossmodule fixtures must span files"
    project = build_project_from_sources(sources)
    return rule_cls().check_project(project)


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
        "s.widget_count += 1",
        "stats.widget_count = 0",
    ]
    assert run_fixture("counter_ownership", "good") == []


def test_per_file_engine_cannot_flag_bad_fixtures():
    """Each bad fixture file is clean in isolation: the violation only
    exists in the cross-module view, which is the point of the tier."""
    checked = 0
    for rule_dir in RULE_DIRS:
        for path in sorted((FIXTURES / rule_dir / "bad").glob("*.py")):
            result = analyze_source(
                path.read_text(encoding="utf-8"), path=str(path)
            )
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
