"""The analysis engine: one lint pass over a set of sources.

:func:`lint` is the one entry point. It parses each source once, runs
every file rule against the shared AST, builds the
:class:`~repro.analysis.project.ProjectGraph` over the same parsed
files and runs the whole-program rules on it, applies per-line
suppressions to both kinds of finding, and returns them together.
``repro lint`` feeds it the files :func:`python_files` finds; tests
feed it sources directly. There is no result cache: a full run over
``src/repro`` takes a few seconds.

Fixture files under ``repro/analysis/fixtures/`` are deliberate rule
violations used by the tests and ``repro lint --explain``; the walker
skips them.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List, Mapping, Tuple

from repro.analysis.findings import Finding
from repro.analysis.project import build_project
from repro.analysis.rules import (
    FileContext,
    all_rules,
    derive_module_path,
    resolve_module_path,
)
from repro.analysis.suppress import apply_suppressions, parse_suppressions

#: Module-path prefix of deliberate-violation fixture files.
FIXTURE_PREFIX = "repro/analysis/fixtures/"


@dataclass
class AnalysisResult:
    """Aggregate outcome of one lint pass."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    files_scanned: int = 0
    #: Modules in the project graph the whole-program rules ran over.
    modules: int = 0


def python_files(paths: Iterable[Path]) -> List[Path]:
    """The files ``paths`` name: files as given, directories walked for
    ``*.py`` (sorted, skipping ``__pycache__`` and fixture files)."""
    files: List[Path] = []
    for path in paths:
        if not path.is_dir():
            files.append(path)
            continue
        files.extend(
            found
            for found in sorted(path.rglob("*.py"))
            if "__pycache__" not in found.parts
            and not derive_module_path(found).startswith(FIXTURE_PREFIX)
        )
    return files


def lint(sources: Mapping[str, str]) -> AnalysisResult:
    """Lint ``{file path: source text}``: the file rules per file, the
    project rules over the graph of everything that parsed, then
    suppressions. A ``# repro-module:`` marker in a source's first
    three lines overrides the module path derived from its file path.
    """
    rules = all_rules()
    result = AnalysisResult(files_scanned=len(sources))
    #: One (context, source, raw findings) record per parsed file.
    files: List[Tuple[FileContext, str, List[Finding]]] = []
    for path, source in sources.items():
        module_path = resolve_module_path(source, derive_module_path(path))
        try:
            tree = ast.parse(source)
        except SyntaxError as exc:
            result.findings.append(
                Finding(
                    path=module_path,
                    line=int(exc.lineno or 1),
                    col=int(exc.offset or 0) + 1,
                    rule="parse-error",
                    message=f"syntax error: {exc.msg}",
                    snippet=(exc.text or "").strip(),
                )
            )
            continue
        ctx = FileContext(path, module_path, tree, source.splitlines())
        files.append((ctx, source, [f for rule in rules for f in rule.check(ctx)]))

    graph = build_project(ctx for ctx, _, _ in files)
    result.modules = len(graph.modules)
    # Two files can claim one module path; the graph keeps the later
    # one, so project findings join that file's list.
    by_module = {ctx.module_path: found for ctx, _, found in files}
    for rule in rules:
        for finding in rule.check_project(graph):
            by_module[finding.path].append(finding)

    known = [rule.rule_id for rule in rules]
    for ctx, source, found in files:
        by_line, bad_suppressions = parse_suppressions(ctx.module_path, source, known)
        kept, suppressed = apply_suppressions(found, by_line)
        result.findings.extend(kept + bad_suppressions)
        result.suppressed.extend(suppressed)
    result.findings.sort()
    result.suppressed.sort()
    return result
