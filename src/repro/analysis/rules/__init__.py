"""Rule registry and the per-file context rules run against.

Every rule is a small object with a ``rule_id``, human documentation
(``title``/``rationale``), a per-file ``check(ctx)`` and a
whole-program ``check_project(project)``; each returns findings and
defaults to none. Rules register themselves via :func:`register`, so
importing the rule modules is enough to populate :data:`RULES`.

Path scoping
------------
Rules scope themselves by *module path* (``repro/units.py``), which the
engine derives from the filesystem path. Fixture files (and tests) can
override it with a first-lines marker::

    # repro-module: repro/serving/gateway_fixture.py

so a fixture stored under ``repro/analysis/fixtures/`` can exercise a
rule that only applies inside, say, ``repro/serving/``.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.analysis.findings import Finding

#: Marker comment overriding the derived module path (first 3 lines).
MODULE_MARKER_RE = re.compile(r"^#\s*repro-module:\s*(\S+)\s*$")


def derive_module_path(path: Union[str, Path]) -> str:
    """Module path (``repro/axe/core.py``) from a filesystem path.

    Anchors on the last ``repro`` directory component so the result is
    the same whether the file is addressed as ``src/repro/axe/core.py``
    or ``/abs/checkout/src/repro/axe/core.py``. Files outside a
    ``repro`` tree keep only their file name.
    """
    parts = Path(path).parts
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            return "/".join(parts[index:])
    return Path(path).name


def resolve_module_path(source: str, default: str) -> str:
    """``default``, unless a ``# repro-module:`` marker overrides it."""
    for raw in source.splitlines()[:3]:
        match = MODULE_MARKER_RE.match(raw.strip())
        if match:
            return match.group(1)
    return default


@dataclass
class FileContext:
    """One parsed source file, as seen by every rule."""

    path: str
    module_path: str
    tree: ast.Module
    lines: List[str]

    def snippet(self, line: int) -> str:
        """Stripped source text of 1-based ``line`` ('' out of range)."""
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def finding(self, rule_id: str, node: ast.AST, message: str) -> Finding:
        line = int(getattr(node, "lineno", 1))
        col = int(getattr(node, "col_offset", 0)) + 1
        return Finding(
            path=self.module_path,
            line=line,
            col=col,
            rule=rule_id,
            message=message,
            snippet=self.snippet(line),
        )


class Rule:
    """Base class: one statically-checkable invariant.

    A rule without checks (``parse-error``, ``suppress-format``) is
    emitted by the engine itself; it is registered so suppressions
    naming it validate and ``--explain`` documents it.
    """

    #: Stable identifier used in findings and suppressions.
    rule_id: str = ""
    #: One-line summary for ``repro lint --list-rules``.
    title: str = ""
    #: Why the invariant matters (shown by ``repro lint --explain``).
    rationale: str = ""

    def check(self, ctx: FileContext) -> List[Finding]:
        return []

    def check_project(self, project: Any) -> List[Finding]:
        return []


class ProjectRule(Rule):
    """A whole-program rule: it checks the
    :class:`~repro.analysis.project.ProjectGraph` of every file in the
    run, once, instead of one file at a time."""


#: Registry of all known rules, keyed by ``rule_id``.
RULES: Dict[str, Rule] = {}


def register(rule: Rule) -> Rule:
    """Add ``rule`` to the registry (idempotent per rule id)."""
    if not rule.rule_id:
        raise ValueError("rule must define a non-empty rule_id")
    RULES[rule.rule_id] = rule
    return rule


def all_rules() -> List[Rule]:
    """Registered rules in deterministic (id-sorted) order."""
    _load_builtin_rules()
    return [RULES[rule_id] for rule_id in sorted(RULES)]


def all_project_rules() -> List[Rule]:
    """Registered whole-program rules in deterministic (id-sorted) order."""
    return [rule for rule in all_rules() if isinstance(rule, ProjectRule)]


def get_rule(rule_id: str) -> Optional[Rule]:
    _load_builtin_rules()
    return RULES.get(rule_id)


def dotted_name(node: ast.AST) -> Optional[str]:
    """Render ``a.b.c`` attribute/name chains; None for anything else."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _load_builtin_rules() -> None:
    """Import the built-in rule modules (self-registering)."""
    from repro.analysis.rules import (  # noqa: F401
        determinism,
        exceptions,
        meta,
        units,
    )
    from repro.analysis.rules.crossmodule import (  # noqa: F401
        counters,
        pins,
        rng,
    )
