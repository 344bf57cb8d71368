"""rng-provenance: seeds trace to injected entropy; sets never feed
accounting.

Determinism in this reproduction is an end-to-end property: a run is a
pure function of its configuration seed. The per-file ``det-rng`` rule
already bans *seedless* RNG construction; this whole-program rule
closes the two leaks a single file cannot see:

1. **Ambient seed provenance.** ``default_rng(seed)`` is only as
   deterministic as ``seed``. A seed derived from ``hash()`` (salted
   per process), ``id()``, ``time.*``, ``uuid.*``, ``secrets.*``,
   ``os.getpid()``/``os.urandom()`` or the stdlib ``random`` module is
   ambient — different every run — even when it is laundered through a
   cross-module helper (``make_rng(entropy())``). The rule evaluates
   the seed argument's def-use origin, follows project helper returns,
   and propagates *parameter* sinks up the resolved call graph so the
   ambient value is flagged at the call site that introduces it.

2. **Unordered iteration feeding accounting.** Functions that feed the
   accounting counters (directly, or transitively through the resolved
   call graph into recording helpers) must not iterate Python sets:
   set order varies across processes/hash seeds, so occurrence-ordered
   counters diverge between a run and its replay. Iterate
   ``sorted(...)`` instead.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple, cast

from repro.analysis.findings import Finding
from repro.analysis.project.graph import (
    Callee,
    FunctionInfo,
    Origin,
    ProjectGraph,
    annotation_is_set,
)
from repro.analysis.rules import ProjectRule, register
from repro.analysis.rules.crossmodule import module_finding, param_annotation
from repro.analysis.rules.crossmodule.registry import (
    COUNTER_CLASSES,
    counter_fields,
)

#: Exact dotted callables whose result differs per process/run.
AMBIENT_CALLS = frozenset(
    {"hash", "id", "input", "os.urandom", "os.getpid", "os.getppid"}
)

#: Module prefixes whose every callable is ambient.
AMBIENT_PREFIXES = frozenset({"time", "uuid", "secrets", "random"})

#: Recording helpers: calling one means the function feeds accounting.
ACCOUNTING_SINKS = frozenset(
    {"_record", "_record_batch", "record_gather", "absorb_summary"}
)

_MAX_DEPTH = 6


def _is_default_rng(callee: Optional[Callee]) -> bool:
    return (
        callee is not None
        and callee.kind == "external"
        and callee.dotted.split(".")[-1] == "default_rng"
    )


class RngProvenanceRule(ProjectRule):
    rule_id = "rng-provenance"
    title = "RNG seeds trace to injected entropy; no set iteration in accounting"
    rationale = (
        "A seed derived from hash()/id()/time/uuid/pid is different "
        "every process, so the run stops being a function of its "
        "configuration — even when the ambient value flows through a "
        "helper in another module. Likewise, set iteration order varies "
        "per process, so a set-driven loop that feeds AccessSummary-"
        "style occurrence counters diverges from its replay."
    )

    def check_project(self, project: object) -> List[Finding]:
        pg = cast(ProjectGraph, project)
        findings: Dict[Tuple[str, int, int], Finding] = {}
        self._check_seed_provenance(pg, findings)
        self._check_set_iteration(pg, findings)
        return [findings[key] for key in sorted(findings)]

    # ------------------------------------------------------ seed provenance
    def _check_seed_provenance(
        self,
        pg: ProjectGraph,
        findings: Dict[Tuple[str, int, int], Finding],
    ) -> None:
        #: Functions whose parameter, if ambient at a caller, taints a seed.
        sinks: Dict[Tuple[str, str], Set[str]] = {}
        for func in pg.functions():
            for site in pg.calls_of(func):
                if not _is_default_rng(site.callee):
                    continue
                seed = self._seed_expr(site.node)
                if seed is None:
                    continue  # seedless: det-rng's per-file business
                origin = pg.origin_of(seed, func)
                ambient = self._ambient(pg, func, origin, _MAX_DEPTH)
                if ambient is not None:
                    self._flag_seed(pg, func, seed, ambient, findings)
                elif origin.kind == "param":
                    sinks.setdefault(func.key, set()).add(origin.name)
        # Propagate parameter sinks up the call graph: a caller passing
        # an ambient value (or its own parameter) into a sink parameter
        # is flagged (or becomes a sink itself).
        for _ in range(_MAX_DEPTH):
            changed = False
            for func in pg.functions():
                for site in pg.calls_of(func):
                    target = self._project_target(pg, site.callee)
                    if target is None or target.key not in sinks:
                        continue
                    mapping = self._map_args(target, site.node)
                    for name in sorted(sinks[target.key]):
                        arg = mapping.get(name)
                        if arg is None:
                            continue
                        origin = pg.origin_of(arg, func)
                        ambient = self._ambient(pg, func, origin, _MAX_DEPTH)
                        if ambient is not None:
                            self._flag_seed(pg, func, arg, ambient, findings)
                        elif origin.kind == "param":
                            bucket = sinks.setdefault(func.key, set())
                            if origin.name not in bucket:
                                bucket.add(origin.name)
                                changed = True
            if not changed:
                break

    def _flag_seed(
        self,
        pg: ProjectGraph,
        func: FunctionInfo,
        expr: ast.expr,
        ambient: str,
        findings: Dict[Tuple[str, int, int], Finding],
    ) -> None:
        minfo = pg.modules[func.module_path]
        key = (func.module_path, expr.lineno, expr.col_offset)
        if key not in findings:
            findings[key] = module_finding(
                minfo,
                self.rule_id,
                expr,
                f"RNG seed derives from ambient '{ambient}' — different "
                "every process, so the run is no longer a function of "
                "its configuration; thread the seed from a SeedSequence "
                "or the session seed instead",
            )

    @staticmethod
    def _seed_expr(call: ast.Call) -> Optional[ast.expr]:
        if call.args and not isinstance(call.args[0], ast.Starred):
            first = call.args[0]
            if isinstance(first, ast.Constant):
                return None  # literal seed: deterministic
            return first
        for keyword in call.keywords:
            if keyword.arg == "seed":
                if isinstance(keyword.value, ast.Constant):
                    return None
                return keyword.value
        return None

    def _ambient(
        self,
        pg: ProjectGraph,
        func: FunctionInfo,
        origin: Origin,
        depth: int,
    ) -> Optional[str]:
        """Dotted name of the ambient source feeding ``origin``, if any."""
        if depth <= 0:
            return None
        if origin.kind in ("attr", "sub", "elt"):
            if origin.base is None:
                return None
            return self._ambient(pg, func, origin.base, depth - 1)
        if origin.kind == "selfattr":
            return self._ambient(
                pg, func, pg.self_attr_origin(func, origin.attr), depth - 1
            )
        if origin.kind in ("tuple", "binop"):
            for item in origin.items:
                found = self._ambient(pg, func, item, depth - 1)
                if found is not None:
                    return found
            return None
        if origin.kind != "call" or origin.callee is None:
            return None
        callee = origin.callee
        if callee.kind == "external":
            dotted = callee.dotted
            if dotted in AMBIENT_CALLS:
                return dotted
            if dotted.split(".")[0] in AMBIENT_PREFIXES:
                return dotted
            return None
        if callee.kind == "project" and "." not in callee.qualname:
            target = pg.function(callee.module, callee.qualname)
            if target is not None:
                for ret in pg.returns_of(target):
                    found = self._ambient(
                        pg, target, pg.origin_of(ret, target), depth - 1
                    )
                    if found is not None:
                        return found
        return None

    @staticmethod
    def _project_target(
        pg: ProjectGraph, callee: Optional[Callee]
    ) -> Optional[FunctionInfo]:
        if callee is None or callee.kind != "project":
            return None
        qualname = callee.qualname
        if "." not in qualname and pg.is_class(callee.module, qualname):
            qualname = f"{qualname}.__init__"
        target = pg.function(callee.module, qualname)
        if target is None or isinstance(target.node, ast.Module):
            return None
        return target

    @staticmethod
    def _map_args(
        target: FunctionInfo, call: ast.Call
    ) -> Dict[str, ast.expr]:
        params = target.param_names()
        if target.class_name is not None and params and params[0] in (
            "self",
            "cls",
        ):
            params = params[1:]
        mapping: Dict[str, ast.expr] = {}
        for index, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                break
            if index < len(params):
                mapping[params[index]] = arg
        for keyword in call.keywords:
            if keyword.arg is not None:
                mapping[keyword.arg] = keyword.value
        return mapping

    # ----------------------------------------------------- set iteration
    def _check_set_iteration(
        self,
        pg: ProjectGraph,
        findings: Dict[Tuple[str, int, int], Finding],
    ) -> None:
        counter_names = self._counter_names(pg)
        feeding = self._feeding_functions(pg, counter_names)
        for func in pg.functions():
            if func.key not in feeding:
                continue
            minfo = pg.modules[func.module_path]
            for stmt, _pinned in pg.statements_of(func):
                if not isinstance(stmt, (ast.For, ast.AsyncFor)):
                    continue
                if not self._is_set(pg, func, pg.origin_of(stmt.iter, func), _MAX_DEPTH):
                    continue
                key = (
                    func.module_path,
                    stmt.iter.lineno,
                    stmt.iter.col_offset,
                )
                if key not in findings:
                    findings[key] = module_finding(
                        minfo,
                        self.rule_id,
                        stmt.iter,
                        "iterating a set in a function that feeds "
                        "accounting counters: set order varies per "
                        "process, so occurrence-ordered counters diverge "
                        "from their replay; iterate sorted(...) instead",
                    )

    @staticmethod
    def _counter_names(pg: ProjectGraph) -> Set[str]:
        names: Set[str] = set()
        for key in COUNTER_CLASSES:
            module, class_name = key.split("::", 1)
            cinfo = pg.class_info(module, class_name)
            if cinfo is not None:
                names.update(counter_fields(cinfo))
        for module_path in pg.modules:
            minfo = pg.modules[module_path]
            for cinfo in minfo.classes.values():
                if cinfo.class_constants.get("__counter_class__"):
                    names.update(counter_fields(cinfo))
        return names

    def _feeding_functions(
        self, pg: ProjectGraph, counter_names: Set[str]
    ) -> Set[Tuple[str, str]]:
        """Functions that (transitively) mutate accounting counters."""
        feeding: Set[Tuple[str, str]] = set()
        for func in pg.functions():
            if self._feeds_directly(pg, func, counter_names):
                feeding.add(func.key)
        for _ in range(_MAX_DEPTH):
            changed = False
            for func in pg.functions():
                if func.key in feeding:
                    continue
                for site in pg.calls_of(func):
                    callee = site.callee
                    if (
                        callee is not None
                        and callee.kind == "project"
                        and (callee.module, callee.qualname) in feeding
                    ):
                        feeding.add(func.key)
                        changed = True
                        break
            if not changed:
                break
        return feeding

    @staticmethod
    def _feeds_directly(
        pg: ProjectGraph, func: FunctionInfo, counter_names: Set[str]
    ) -> bool:
        for stmt, _pinned in pg.statements_of(func):
            targets: List[ast.expr] = []
            if isinstance(stmt, ast.Assign):
                targets = list(stmt.targets)
            elif isinstance(stmt, ast.AugAssign):
                targets = [stmt.target]
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr in counter_names
                ):
                    return True
        for site in pg.calls_of(func):
            if (
                isinstance(site.node.func, ast.Attribute)
                and site.node.func.attr in ACCOUNTING_SINKS
            ):
                return True
        return False

    def _is_set(
        self,
        pg: ProjectGraph,
        func: FunctionInfo,
        origin: Origin,
        depth: int,
    ) -> bool:
        if depth <= 0:
            return False
        if origin.kind == "set":
            return True
        if origin.kind == "selfattr":
            return self._is_set(
                pg, func, pg.self_attr_origin(func, origin.attr), depth - 1
            )
        if origin.kind == "binop":
            return any(
                self._is_set(pg, func, item, depth - 1)
                for item in origin.items
            )
        if origin.kind == "param":
            return annotation_is_set_or_none(
                param_annotation(func, origin.name)
            )
        if origin.kind == "call" and origin.callee is not None:
            callee = origin.callee
            if callee.kind == "external":
                return callee.dotted in ("set", "frozenset")
            if callee.kind == "project" and "." not in callee.qualname:
                target = pg.function(callee.module, callee.qualname)
                if target is not None:
                    return any(
                        self._is_set(
                            pg,
                            target,
                            pg.origin_of(ret, target),
                            depth - 1,
                        )
                        for ret in pg.returns_of(target)
                    )
        return False


def annotation_is_set_or_none(annotation: Optional[ast.expr]) -> bool:
    return annotation is not None and annotation_is_set(annotation)


register(RngProvenanceRule())
