"""Implementation of the ``repro lint`` CLI subcommand.

Every run applies every rule (file and whole-program) to the scanned
tree. Exit-code semantics:

* ``0`` — no unsuppressed findings (also for the informational modes
  ``--explain`` / ``--list-rules``).
* ``1`` — findings, or ``--explain`` of an unknown rule id.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, List

import repro
from repro.analysis.engine import lint, python_files
from repro.analysis.rules import all_rules, get_rule

#: Deliberate-violation fixtures: ``<rule>_<kind>.py`` for a file rule,
#: ``crossmodule/<rule>/<kind>/*.py`` for a whole-program rule.
FIXTURES = Path(__file__).resolve().parent / "fixtures"


def fixture_files(rule_id: str, kind: str) -> List[Path]:
    """A rule's ``bad`` or ``good`` fixture file(s); [] if it has none."""
    name = rule_id.replace("-", "_")
    single = FIXTURES / f"{name}_{kind}.py"
    if single.exists():
        return [single]
    return sorted((FIXTURES / "crossmodule" / name / kind).glob("*.py"))


def explain_rule(rule_id: str, out: Any) -> int:
    """Print a rule's documentation plus its bad/good fixtures."""
    rule = get_rule(rule_id)
    if rule is None:
        known = ", ".join(sorted(r.rule_id for r in all_rules()))
        print(f"unknown rule id '{rule_id}' (known: {known})", file=out)
        return 1
    print(f"{rule.rule_id} — {rule.title}\n\n{rule.rationale}", file=out)
    for kind, label in (("bad", "fires on"), ("good", "clean")):
        for path in fixture_files(rule_id, kind):
            print(f"\n--- {label} ({path.relative_to(FIXTURES)}) ---", file=out)
            print(path.read_text(encoding="utf-8").rstrip(), file=out)
    return 0


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the ``repro lint`` argument set to ``parser``."""
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the repro package)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format",
    )
    parser.add_argument(
        "--explain", default=None, metavar="RULE_ID",
        help="print a rule's doc plus its bad/good fixture pair",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list registered rules and exit",
    )


def run_lint(args: argparse.Namespace, out: Any = None) -> int:
    """Execute ``repro lint`` for parsed ``args``; returns exit code."""
    out = out if out is not None else sys.stdout
    if args.explain is not None:
        return explain_rule(args.explain, out)
    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.rule_id:<18} {rule.title}", file=out)
        return 0

    roots = [Path(p) for p in args.paths] or [Path(repro.__file__).resolve().parent]
    result = lint(
        {str(path): path.read_text(encoding="utf-8") for path in python_files(roots)}
    )
    exit_code = 1 if result.findings else 0

    if args.format == "json":
        report = {
            "files_scanned": result.files_scanned,
            "modules": result.modules,
            "findings": [f.to_dict() for f in result.findings],
            "suppressed": len(result.suppressed),
            "exit_code": exit_code,
        }
        print(json.dumps(report), file=out)
        return exit_code

    for finding in result.findings:
        print(finding.format(), file=out)
        if finding.snippet:
            print(f"    {finding.line} | {finding.snippet}", file=out)
    print(
        f"{len(result.findings)} finding(s), {len(result.suppressed)} "
        f"suppressed across {result.files_scanned} file(s); project "
        f"rules ran over {result.modules} module(s)",
        file=out,
    )
    if exit_code == 0:
        print("lint: clean", file=out)
    return exit_code
