"""``repro lint`` CLI tests: exit codes, JSON output, --explain /
--list-rules, the retired options, and the CI guarantee that a
deliberately introduced violation — file-level or cross-module — fails
a plain ``repro lint``."""

import argparse
import io
import json
import shutil
from pathlib import Path

import pytest

import repro
from repro.analysis import all_rules
from repro.analysis.lintcli import add_lint_arguments, run_lint
from repro.cli import main as repro_main

SRC_ROOT = Path(repro.__file__).resolve().parent
CROSSMODULE_FIXTURES = SRC_ROOT / "analysis" / "fixtures" / "crossmodule"


def lint(argv):
    """Parse ``argv`` like the CLI and run; return (exit_code, output)."""
    parser = argparse.ArgumentParser()
    add_lint_arguments(parser)
    args = parser.parse_args(argv)
    out = io.StringIO()
    code = run_lint(args, out=out)
    return code, out.getvalue()


# ------------------------------------------------------------ happy paths
def test_repo_is_lint_clean():
    code, output = lint([str(SRC_ROOT)])
    assert code == 0, output
    assert "lint: clean" in output
    # The report shows the whole-program rules ran over the tree.
    assert "project rules ran over 1" in output


def test_json_report_shape(tmp_path):
    target = tmp_path / "clean.py"
    target.write_text("x = 1\n", encoding="utf-8")
    code, output = lint([str(target), "--format", "json"])
    assert code == 0
    assert json.loads(output) == {
        "files_scanned": 1,
        "modules": 1,
        "findings": [],
        "suppressed": 0,
        "exit_code": 0,
    }


def test_new_finding_exits_one(tmp_path):
    target = tmp_path / "bad.py"
    target.write_text("import random\n", encoding="utf-8")
    code, output = lint([str(target)])
    assert code == 1
    assert "[det-rng]" in output


@pytest.mark.parametrize(
    "option", ["--deep", "--cache x", "--baseline x", "--update-baseline"]
)
def test_retired_options_are_usage_errors(option):
    """One pass, no cache, no baseline: the old switches exit 2."""
    with pytest.raises(SystemExit) as exc:
        repro_main(["lint", *option.split()])
    assert exc.value.code == 2


# ---------------------------------------------------- informational modes
def test_explain_prints_fixture_pair():
    code, output = lint(["--explain", "det-rng"])
    assert code == 0
    assert "det-rng" in output
    assert "fires on" in output and "clean" in output
    assert "default_rng" in output


def test_explain_unknown_rule_exits_one():
    code, output = lint(["--explain", "not-a-rule"])
    assert code == 1
    assert "unknown rule id" in output


def test_list_rules_names_the_rule_pack():
    code, output = lint(["--list-rules"])
    assert code == 0
    assert [line.split()[0] for line in output.splitlines()] == [
        "counter-ownership",
        "det-rng",
        "det-wallclock",
        "except-swallow",
        "parse-error",
        "pin-discipline",
        "rng-provenance",
        "suppress-format",
        "units-magic",
    ]


def test_repro_lint_is_the_entry_point(tmp_path, capsys):
    """``repro lint`` is the only way in: a clean file returns, a
    violation exits 1."""
    target = tmp_path / "clean.py"
    target.write_text("x = 1\n", encoding="utf-8")
    repro_main(["lint", str(target)])
    assert "lint: clean" in capsys.readouterr().out
    target.write_text("import random\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        repro_main(["lint", str(target)])
    assert exc.value.code == 1


# ------------------------------------------------------- the CI guarantee
UNPIN = ("with self.store.read_view():", "if True:")


#: (payload, rule): a line appended to ``framework/sampler.py``, or an
#: (edited file, old, new, what the report must name) edit.
INJECTED = [
    ("rng = np.random.default_rng()\n", "det-rng"),
    ("import time\n\n_T0 = time.time()\n", "det-wallclock"),
    ("_BYTES = 4 * 1024 ** 3\n", "units-magic"),
    # A degraded read of the reference walk that is no longer counted,
    # and a walk that lost its pin.
    pytest.param(
        (
            "framework/replay.py",
            "self.degraded_fallbacks += 1",
            "pass",
            ["repro/framework/replay.py"],
        ),
        "except-swallow",
        id="oracle-uncounted-fallback",
    ),
    pytest.param(
        ("framework/replay.py", *UNPIN, ["repro/framework/replay.py"]),
        "pin-discipline",
        id="oracle-unpinned-walk",
    ),
    # The engine pins its gather in collect() but issues it through
    # methods it inherits, so the unpinned reads are the base
    # sampler's, reached from ParallelSampler.sample.
    pytest.param(
        (
            "parallel/engine.py",
            *UNPIN,
            ["repro/framework/sampler.py", "entry point ParallelSampler.sample"],
        ),
        "pin-discipline",
        id="engine-unpinned-gather",
    ),
]

#: Rules whose violations only a multi-file fixture project shows.
CROSSMODULE = ["counter-ownership", "pin-discipline", "rng-provenance"]


@pytest.mark.parametrize("payload, rule", INJECTED)
def test_injected_violation_fails_lint(tmp_path, payload, rule):
    """Introducing a seedless RNG, a wall-clock call or a magic unit
    conversion into a copy of ``repro/framework``, un-counting /
    un-pinning the oracle there, or un-pinning the sharded engine
    beside it, makes ``repro lint`` exit nonzero — the check CI relies
    on."""
    package = tmp_path / "repro"
    package.mkdir()
    for name in ("framework", "parallel"):
        shutil.copytree(SRC_ROOT / name, package / name)

    if isinstance(payload, tuple):
        edited, old, new, named = payload
        target = package / edited
        source = target.read_text(encoding="utf-8")
        assert old in source
        injected = source.replace(old, new)
    else:
        target = package / "framework" / "sampler.py"
        named = ["repro/framework/sampler.py"]
        source = target.read_text(encoding="utf-8")
        assert "import numpy as np" in source
        injected = source + "\n" + payload
    target.write_text(injected, encoding="utf-8")

    code, output = lint([str(package)])
    assert code == 1
    assert f"[{rule}]" in output
    for fragment in named:
        assert fragment in output

    # The pristine copy minus the injection is clean.
    target.write_text(source, encoding="utf-8")
    code, output = lint([str(package)])
    assert code == 0, output


@pytest.mark.parametrize("rule", CROSSMODULE)
def test_injected_crossmodule_violation_fails_lint(tmp_path, rule):
    """The same guarantee for violations no single file can witness:
    each ``bad/`` fixture project fails a plain ``repro lint`` (no
    flag), each ``good/`` twin passes."""
    fixtures = CROSSMODULE_FIXTURES / rule.replace("-", "_")
    for kind in ("bad", "good"):
        shutil.copytree(fixtures / kind, tmp_path / kind)

    code, output = lint([str(tmp_path / "bad")])
    assert code == 1
    assert f"[{rule}]" in output

    code, output = lint([str(tmp_path / "good")])
    assert code == 0, output


def test_every_rule_has_an_injected_violation():
    """Each rule is guarded by an injection above that fails without it;
    the two engine-emitted rules by the parse-error and suppression
    tests."""
    injected = {getattr(case, "values", case)[1] for case in INJECTED}
    engine_emitted = {"parse-error", "suppress-format"}
    assert injected | set(CROSSMODULE) | engine_emitted == {
        rule.rule_id for rule in all_rules()
    }
