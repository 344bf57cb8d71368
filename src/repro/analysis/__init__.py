"""Static analysis enforcing the simulator's correctness contracts.

The reproduction's headline results — replay-equivalent batched
sampling, fault accounting, SLO latency distributions — all rest on
unwritten invariants: randomness flows through injected seeded
generators, no package code reads the host clock, unit conversions go
through :mod:`repro.units`, and accounting counters are mutated only by
their recording helpers. This package enforces those invariants
mechanically with an AST-based rule engine and per-line suppressions
(``# repro: allow[rule-id] reason``), the one exemption mechanism.
See ``repro lint --list-rules``.

:func:`lint` is the one entry point: one pass over two kinds of rule,
per-file :class:`Rule` checks against each parsed file and
whole-program :class:`ProjectRule` checks over a :class:`ProjectGraph`
— symbol tables and a call-graph approximation built from the same
parsed files — to catch violations that span modules (snapshot-pin
escapes, laundered RNG seeds, cross-module counter mutations).
"""

from repro.analysis.engine import AnalysisResult, lint, python_files
from repro.analysis.findings import Finding
from repro.analysis.project import ProjectGraph
from repro.analysis.rules import (
    RULES,
    ProjectRule,
    Rule,
    all_project_rules,
    all_rules,
    derive_module_path,
    get_rule,
    register,
)

__all__ = [
    "AnalysisResult",
    "Finding",
    "ProjectGraph",
    "ProjectRule",
    "RULES",
    "Rule",
    "all_project_rules",
    "all_rules",
    "derive_module_path",
    "get_rule",
    "lint",
    "python_files",
    "register",
]
