"""counter-ownership: counter classes mutate only in owning modules.

Ownership is checked by receiver *type*, not attribute name, so an
``AccessSummary`` is never confused with an unrelated object that
happens to have a ``remote_count`` attribute. The rule resolves the
class of every mutation target through the project graph (constructor
calls, helper returns, ``self.*`` attribute origins, parameter
annotations), looks the class up in the declared
:data:`~repro.analysis.rules.crossmodule.registry.COUNTER_CLASSES`
registry (or its ``__counter_class__ = True`` opt-in marker), and
flags mutations of that class's *discovered* counter fields outside
the owning modules.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, List, Optional, Tuple, cast

from repro.analysis.findings import Finding
from repro.analysis.project.graph import (
    FunctionInfo,
    Origin,
    ProjectGraph,
)
from repro.analysis.rules import ProjectRule, register
from repro.analysis.rules.crossmodule import module_finding, param_annotation
from repro.analysis.rules.crossmodule.registry import (
    COUNTER_CLASSES,
    counter_fields,
)

_MAX_DEPTH = 5

#: (module_path, ClassName) -> (owner modules, counter field names)
_ClassTable = Dict[Tuple[str, str], Tuple[FrozenSet[str], FrozenSet[str]]]


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

    def check_project(self, project: object) -> List[Finding]:
        pg = cast(ProjectGraph, project)
        table = self._class_table(pg)
        field_index: Dict[str, List[Tuple[str, str]]] = {}
        for cls_key, (_owners, fields) in table.items():
            for name in fields:
                field_index.setdefault(name, []).append(cls_key)
        findings: Dict[Tuple[str, int, int], Finding] = {}
        for func in pg.functions():
            minfo = pg.modules[func.module_path]
            for stmt, _pinned in pg.statements_of(func):
                targets: List[ast.expr] = []
                if isinstance(stmt, ast.Assign):
                    targets = list(stmt.targets)
                elif isinstance(stmt, ast.AugAssign):
                    targets = [stmt.target]
                for target in targets:
                    if not isinstance(target, ast.Attribute):
                        continue
                    if target.attr not in field_index:
                        continue
                    cls = self._receiver_class(pg, func, target.value)
                    if cls is None or cls not in table:
                        continue
                    owners, fields = table[cls]
                    if target.attr not in fields:
                        continue
                    if func.module_path in owners:
                        continue
                    key = (
                        func.module_path,
                        target.lineno,
                        target.col_offset,
                    )
                    if key not in findings:
                        findings[key] = module_finding(
                            minfo,
                            self.rule_id,
                            target,
                            f"counter field '.{target.attr}' of "
                            f"{cls[0]}::{cls[1]} may only be mutated in "
                            f"{' or '.join(sorted(owners))}; call its "
                            "recording helper instead",
                        )
        return [findings[key] for key in sorted(findings)]

    # ------------------------------------------------------------ registry
    @staticmethod
    def _class_table(pg: ProjectGraph) -> _ClassTable:
        table: _ClassTable = {}
        for key, owners in COUNTER_CLASSES.items():
            module, class_name = key.split("::", 1)
            cinfo = pg.class_info(module, class_name)
            if cinfo is not None:
                table[(module, class_name)] = (owners, counter_fields(cinfo))
        for module_path in pg.modules:
            minfo = pg.modules[module_path]
            for cinfo in minfo.classes.values():
                cls_key = (module_path, cinfo.name)
                if cls_key in table:
                    continue
                if cinfo.class_constants.get("__counter_class__"):
                    table[cls_key] = (
                        frozenset({module_path}),
                        counter_fields(cinfo),
                    )
        return table

    # ------------------------------------------------------ type resolution
    def _receiver_class(
        self, pg: ProjectGraph, func: FunctionInfo, expr: ast.expr
    ) -> Optional[Tuple[str, str]]:
        if (
            isinstance(expr, ast.Name)
            and expr.id == "self"
            and func.class_name is not None
        ):
            return (func.module_path, func.class_name)
        return self._origin_class(
            pg, func, pg.origin_of(expr, func), _MAX_DEPTH
        )

    def _origin_class(
        self,
        pg: ProjectGraph,
        func: FunctionInfo,
        origin: Origin,
        depth: int,
    ) -> Optional[Tuple[str, str]]:
        if depth <= 0:
            return None
        if origin.kind == "selfattr":
            return self._origin_class(
                pg, func, pg.self_attr_origin(func, origin.attr), depth - 1
            )
        if origin.kind == "attr":
            if origin.base is None:
                return None
            base_cls = self._origin_class(pg, func, origin.base, depth - 1)
            if base_cls is None:
                return None
            cinfo = pg.class_info(*base_cls)
            if cinfo is None or not cinfo.methods:
                return None
            method = cinfo.methods[sorted(cinfo.methods)[0]]
            return self._origin_class(
                pg,
                method,
                pg.self_attr_origin(method, origin.attr),
                depth - 1,
            )
        if origin.kind == "param":
            annotation = param_annotation(func, origin.name)
            if annotation is None:
                return None
            return pg.resolve_annotation(
                pg.modules[func.module_path], annotation
            )
        if origin.kind != "call" or origin.callee is None:
            return None
        callee = origin.callee
        if callee.kind != "project":
            return None
        if "." not in callee.qualname and pg.is_class(
            callee.module, callee.qualname
        ):
            return (callee.module, callee.qualname)
        target = pg.function(callee.module, callee.qualname)
        if target is None or isinstance(target.node, ast.Module):
            return None
        for ret in pg.returns_of(target):
            found = self._origin_class(
                pg, target, pg.origin_of(ret, target), depth - 1
            )
            if found is not None:
                return found
        return None


register(CounterOwnershipRule())
