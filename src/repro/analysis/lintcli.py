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
from typing import Any, List, Optional

import repro
from repro.analysis.engine import AnalysisEngine
from repro.analysis.rules import all_rules, get_rule


def default_scan_root() -> Path:
    """The installed ``repro`` package directory."""
    return Path(repro.__file__).resolve().parent


def fixture_path(rule_id: str, kind: str) -> Path:
    """Path of a rule's ``bad``/``good`` fixture file."""
    name = f"{rule_id.replace('-', '_')}_{kind}.py"
    return Path(__file__).resolve().parent / "fixtures" / name


def fixture_dir(rule_id: str, kind: str) -> Path:
    """Directory of a cross-module rule's multi-file fixture project."""
    return (
        Path(__file__).resolve().parent
        / "fixtures"
        / "crossmodule"
        / rule_id.replace("-", "_")
        / kind
    )


def explain_rule(rule_id: str, out: Any = None) -> int:
    """Print a rule's documentation plus its bad/good fixture pair."""
    out = out if out is not None else sys.stdout
    rule = get_rule(rule_id)
    if rule is None:
        known = ", ".join(sorted(r.rule_id for r in all_rules()))
        print(f"unknown rule id '{rule_id}' (known: {known})", file=out)
        return 1
    print(f"{rule.rule_id} — {rule.title}", file=out)
    print(file=out)
    print(rule.rationale, file=out)
    for kind, label in (("bad", "fires on"), ("good", "clean")):
        path = fixture_path(rule_id, kind)
        if path.exists():
            print(file=out)
            print(f"--- {label} ({path.name}) ---", file=out)
            print(path.read_text(encoding="utf-8").rstrip(), file=out)
            continue
        directory = fixture_dir(rule_id, kind)
        if directory.is_dir():
            for file in sorted(directory.glob("*.py")):
                print(file=out)
                print(
                    f"--- {label} ({directory.name}/{file.name}) ---",
                    file=out,
                )
                print(file.read_text(encoding="utf-8").rstrip(), file=out)
    return 0


def list_rules(out: Any = None) -> int:
    out = out if out is not None else sys.stdout
    for rule in all_rules():
        print(f"{rule.rule_id:<18} {rule.title}", file=out)
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
        return explain_rule(args.explain, out=out)
    if args.list_rules:
        return list_rules(out=out)

    scan_paths = (
        [Path(p) for p in args.paths] if args.paths else [default_scan_root()]
    )
    result = AnalysisEngine().run(scan_paths)
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


def main(argv: Optional[List[str]] = None) -> int:
    """Standalone entry point (``python -m repro.analysis.lintcli``)."""
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="AST-based invariant linter for the repro package",
    )
    add_lint_arguments(parser)
    return run_lint(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
