"""The analysis engine: file walker, rule driver, suppressions.

One :class:`AnalysisEngine` run walks a tree (or explicit files),
parses each ``*.py`` once, runs every file rule against the shared
AST, builds the :class:`~repro.analysis.project.graph.ProjectGraph`
over the same parsed files and runs the whole-program rules on it,
applies per-line suppressions to both kinds of finding, and returns
them together. There is no result cache: a full run over ``src/repro``
takes a few seconds.

Fixture files under ``repro/analysis/fixtures/`` are deliberate rule
violations used by the tests and ``repro lint --explain``; the walker
skips them.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.analysis.findings import Finding
from repro.analysis.project.graph import build_project
from repro.analysis.rules import (
    FileContext,
    ProjectRule,
    Rule,
    all_rules,
    derive_module_path,
    resolve_module_path,
)
from repro.analysis.suppress import apply_suppressions, parse_suppressions

#: Module-path prefix of deliberate-violation fixture files.
FIXTURE_PREFIX = "repro/analysis/fixtures/"


@dataclass
class FileResult:
    """Per-file analysis outcome."""

    path: str
    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)


@dataclass
class AnalysisResult:
    """Aggregate outcome of one engine run."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    files_scanned: int = 0
    #: Modules in the project graph the whole-program rules ran over.
    modules: int = 0


def _check_file(
    source: str, path: str, module_path: str, rules: Sequence[Rule]
) -> Tuple[Optional[FileContext], List[Finding]]:
    """Parse one file and run the file rules: (context, raw findings).

    A file that does not parse yields no context and a single
    ``parse-error`` finding.
    """
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return None, [
            Finding(
                path=module_path,
                line=int(exc.lineno or 1),
                col=int(exc.offset or 0) + 1,
                rule="parse-error",
                message=f"syntax error: {exc.msg}",
                snippet=(exc.text or "").strip(),
            )
        ]
    ctx = FileContext(
        path=path,
        module_path=module_path,
        tree=tree,
        lines=source.splitlines(),
    )
    findings: List[Finding] = []
    for rule in rules:
        findings.extend(rule.check(ctx))
    return ctx, findings


def _suppress(
    module_path: str,
    source: str,
    findings: List[Finding],
    rules: Sequence[Rule],
) -> Tuple[List[Finding], List[Finding]]:
    """Split one file's raw findings into sorted (kept, suppressed)."""
    by_line, bad_suppressions = parse_suppressions(
        module_path, source, [rule.rule_id for rule in rules]
    )
    kept, suppressed = apply_suppressions(findings, by_line)
    return sorted(kept + bad_suppressions), sorted(suppressed)


def analyze_source(
    source: str,
    *,
    path: str = "<memory>",
    module_path: Optional[str] = None,
    rules: Optional[Sequence[Rule]] = None,
) -> FileResult:
    """Run the file rules on one source string (the unit the rule tests
    drive directly; the whole-program rules need :meth:`AnalysisEngine.run`).

    ``module_path`` defaults to ``path``; a ``# repro-module:`` marker
    in the first three lines overrides both.
    """
    active_rules = list(rules) if rules is not None else all_rules()
    resolved_module = resolve_module_path(
        source, module_path if module_path is not None else path
    )
    result = FileResult(path=resolved_module)
    ctx, findings = _check_file(source, path, resolved_module, active_rules)
    if ctx is None:
        result.findings = findings
    else:
        result.findings, result.suppressed = _suppress(
            resolved_module, source, findings, active_rules
        )
    return result


class AnalysisEngine:
    """Walks files, runs file and project rules, aggregates findings."""

    def __init__(self, rules: Optional[Sequence[Rule]] = None) -> None:
        self.rules: List[Rule] = (
            list(rules) if rules is not None else all_rules()
        )
        self.project_rules: List[ProjectRule] = [
            rule for rule in self.rules if isinstance(rule, ProjectRule)
        ]

    # ------------------------------------------------------------- walking
    @staticmethod
    def iter_python_files(root: Path) -> List[Path]:
        """All lintable ``*.py`` files under ``root``, sorted."""
        files: List[Path] = []
        for path in sorted(root.rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            if derive_module_path(path).startswith(FIXTURE_PREFIX):
                continue
            files.append(path)
        return files

    def expand_paths(self, paths: Iterable[Path]) -> List[Path]:
        expanded: List[Path] = []
        for path in paths:
            if path.is_dir():
                expanded.extend(self.iter_python_files(path))
            else:
                expanded.append(path)
        return expanded

    # ------------------------------------------------------------- running
    def run(self, paths: Sequence[Path]) -> AnalysisResult:
        """Lint ``paths``: file rules per file, then the project rules
        over the graph of everything that parsed, then suppressions."""
        result = AnalysisResult()
        #: One (context, source, raw findings) record per parsed file.
        files: List[Tuple[FileContext, str, List[Finding]]] = []
        for path in self.expand_paths(paths):
            source = path.read_text(encoding="utf-8")
            module_path = resolve_module_path(
                source, derive_module_path(path)
            )
            ctx, findings = _check_file(
                source, str(path), module_path, self.rules
            )
            result.files_scanned += 1
            if ctx is None:
                result.findings.extend(findings)
            else:
                files.append((ctx, source, findings))

        graph = build_project([ctx for ctx, _, _ in files])
        result.modules = len(graph.modules)
        # Two files can claim one module path; the graph keeps the later
        # one, so project findings join that file's list.
        by_module = {ctx.module_path: found for ctx, _, found in files}
        for rule in self.project_rules:
            for finding in rule.check_project(graph):
                by_module[finding.path].append(finding)

        for ctx, source, findings in files:
            kept, suppressed = _suppress(
                ctx.module_path, source, findings, self.rules
            )
            result.findings.extend(kept)
            result.suppressed.extend(suppressed)
        result.findings.sort()
        result.suppressed.sort()
        return result
