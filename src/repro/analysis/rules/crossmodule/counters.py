"""counter-ownership: counter classes mutate only in owning modules.

Ownership is checked by receiver *type*, not attribute name, so an
``AccessSummary`` is never confused with an unrelated object that
happens to have a ``remote_count`` attribute. The rule resolves the
class of every mutation target through the project graph
(:meth:`~repro.analysis.project.ProjectGraph.class_of`: constructor
calls, helper returns, ``self.*`` attribute origins, parameter
annotations), looks it up in the
:data:`~repro.analysis.rules.crossmodule.registry.COUNTER_CLASSES`
registry, and flags mutations of that class's *discovered* counter
fields outside the module that defines it.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Tuple

from repro.analysis.findings import Finding
from repro.analysis.project import ProjectGraph, assignment_targets
from repro.analysis.rules import ProjectRule, register
from repro.analysis.rules.crossmodule.registry import counter_classes


class CounterOwnershipRule(ProjectRule):
    rule_id = "counter-ownership"
    title = "registered counter classes mutate only in their owning modules"
    rationale = (
        "Accounting counters back the access-mix characterization, the "
        "cache calibration, and the replay-equivalence checks; they are "
        "only meaningful while every mutation goes through the owning "
        "module's recording helpers. Resolving the receiver's type "
        "program-wide catches strays a single file cannot witness (and "
        "never misfires on lookalike attribute names)."
    )

    def check_project(self, project: ProjectGraph) -> List[Finding]:
        table = counter_classes(project)
        names = {name for fields in table.values() for name in fields}
        findings: Dict[Tuple[str, int, int], Finding] = {}
        for func in project.functions():
            minfo = project.modules[func.module_path]
            for stmt, _pinned in project.statements_of(func):
                for target in assignment_targets(stmt):
                    if not isinstance(target, ast.Attribute):
                        continue
                    if target.attr not in names:
                        continue
                    receiver = project.origin_of(target.value, func)
                    cls = project.class_of(func, receiver)
                    if cls is None or target.attr not in table.get(cls, ()):
                        continue
                    if func.module_path == cls[0]:
                        continue
                    key = (func.module_path, target.lineno, target.col_offset)
                    findings.setdefault(key, minfo.finding(
                        self.rule_id,
                        target,
                        f"counter field '.{target.attr}' of {cls[0]}::{cls[1]} "
                        f"may only be mutated in {cls[0]}; call its "
                        "recording helper instead",
                    ))
        return [findings[key] for key in sorted(findings)]


register(CounterOwnershipRule())
