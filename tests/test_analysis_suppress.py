"""Suppression-comment tests: ``# repro: allow[rule-id] reason`` is
the one exemption mechanism; a suppressed finding doesn't fail the run
and a malformed suppression is itself a finding."""

from repro.analysis import analyze_source

MODULE = "repro/framework/sampler.py"


def findings_of(source, module_path=MODULE):
    return analyze_source(source, module_path=module_path)


# ------------------------------------------------------------- suppressions
def test_inline_suppression_moves_finding_aside():
    result = findings_of(
        "import random  # repro: allow[det-rng] fixture for docs\n"
    )
    assert result.findings == []
    assert [f.rule for f in result.suppressed] == ["det-rng"]


def test_comment_line_suppresses_next_code_line():
    source = (
        "# repro: allow[det-wallclock] measured on the host on purpose\n"
        "import time\n"
    )
    result = findings_of(source)
    assert result.findings == []
    assert [f.rule for f in result.suppressed] == ["det-wallclock"]


def test_suppression_is_rule_scoped():
    source = "import time  # repro: allow[det-rng] wrong rule id\n"
    result = findings_of(source)
    assert [f.rule for f in result.findings] == ["det-wallclock"]
    assert result.suppressed == []


def test_suppression_without_reason_is_invalid():
    result = findings_of("import time  # repro: allow[det-wallclock]\n")
    fired = {f.rule for f in result.findings}
    assert "suppress-format" in fired
    assert "det-wallclock" in fired  # malformed comment suppresses nothing


def test_suppression_with_unknown_rule_is_invalid():
    result = findings_of("x = 1  # repro: allow[no-such-rule] because\n")
    assert [f.rule for f in result.findings] == ["suppress-format"]


def test_string_literal_is_not_a_suppression():
    source = 'note = "# repro: allow[det-wallclock] not a comment"\nimport time\n'
    result = findings_of(source)
    assert [f.rule for f in result.findings] == ["det-wallclock"]


def test_multi_rule_suppression():
    source = (
        "import time, random"
        "  # repro: allow[det-wallclock, det-rng] demo of both\n"
    )
    result = findings_of(source)
    assert result.findings == []
    assert sorted(f.rule for f in result.suppressed) == [
        "det-rng",
        "det-wallclock",
    ]
