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
   cross-module helper (``make_rng(entropy())``). The rule resolves the
   seed argument's origin, and propagates *parameter* sinks up the
   resolved call graph so the ambient value is flagged at the call
   site that introduces it.

2. **Unordered iteration feeding accounting.** Functions that feed the
   accounting counters (directly, or transitively through the resolved
   call graph into recording helpers) must not iterate Python sets:
   set order varies across processes/hash seeds, so occurrence-ordered
   counters diverge between a run and its replay. Iterate
   ``sorted(...)`` instead.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.findings import Finding
from repro.analysis.project import (
    FunctionInfo,
    Origin,
    ProjectGraph,
    assignment_targets,
)
from repro.analysis.rules import ProjectRule, register
from repro.analysis.rules.crossmodule.registry import (
    ACCOUNTING_SINKS,
    counter_classes,
)

#: Exact dotted callables whose result differs per process/run.
AMBIENT_CALLS = frozenset(
    {"hash", "id", "input", "os.urandom", "os.getpid", "os.getppid"}
)

#: Module prefixes whose every callable is ambient.
AMBIENT_PREFIXES = frozenset({"time", "uuid", "secrets", "random"})

_Findings = Dict[Tuple[str, int, int], Finding]


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

    def check_project(self, project: ProjectGraph) -> List[Finding]:
        findings: _Findings = {}
        self._check_seed_provenance(project, findings)
        self._check_set_iteration(project, findings)
        return [findings[key] for key in sorted(findings)]

    # ------------------------------------------------------ seed provenance
    def _check_seed_provenance(self, pg: ProjectGraph, findings: _Findings) -> None:
        #: Functions whose parameter, if ambient at a caller, taints a seed.
        sinks: Dict[Tuple[str, str], Set[str]] = {}

        def _trace(func: FunctionInfo, expr: ast.expr) -> bool:
            """Flag an ambient ``expr``, or record the parameter it is;
            True when a new sink parameter was recorded."""
            origin = pg.origin_of(expr, func)
            ambient = _ambient(pg, func, origin)
            if ambient is not None:
                key = (func.module_path, expr.lineno, expr.col_offset)
                findings.setdefault(key, pg.modules[func.module_path].finding(
                    self.rule_id,
                    expr,
                    f"RNG seed derives from ambient '{ambient}' — different "
                    "every process, so the run is no longer a function of "
                    "its configuration; thread the seed from a SeedSequence "
                    "or the session seed instead",
                ))
            elif origin.kind == "param" and origin.name not in sinks.get(func.key, ()):
                sinks.setdefault(func.key, set()).add(origin.name)
                return True
            return False

        for func in pg.functions():
            for site in pg.calls_of(func):
                callee = site.callee
                if callee is None or callee.kind != "external":
                    continue
                seed = _seed_expr(site.node)
                if callee.dotted.split(".")[-1] == "default_rng" and seed is not None:
                    _trace(func, seed)
        # Propagate parameter sinks up the call graph: a caller passing
        # an ambient value (or its own parameter) into a sink parameter
        # is flagged (or becomes a sink itself).
        changed = True
        while changed:
            changed = False
            for func in pg.functions():
                for site in pg.calls_of(func):
                    target = pg.target_of(site.callee)
                    if target is None or target.key not in sinks:
                        continue
                    args = _map_args(target, site.node)
                    for name in sorted(sinks[target.key]):
                        if name in args:
                            changed |= _trace(func, args[name])

    # ----------------------------------------------------- set iteration
    def _check_set_iteration(self, pg: ProjectGraph, findings: _Findings) -> None:
        counter_names = {
            name for fields in counter_classes(pg).values() for name in fields
        }
        # Functions that mutate a counter or call a recording helper,
        # then (to a fixpoint) every project function calling one.
        feeding = {
            func.key
            for func in pg.functions()
            if any(
                isinstance(target, ast.Attribute) and target.attr in counter_names
                for stmt, _pinned in pg.statements_of(func)
                for target in assignment_targets(stmt)
            )
            or any(
                isinstance(site.node.func, ast.Attribute)
                and site.node.func.attr in ACCOUNTING_SINKS
                for site in pg.calls_of(func)
            )
        }
        callers = feeding
        while callers:
            callers = {
                func.key
                for func in pg.functions()
                if func.key not in feeding
                and any(
                    site.callee is not None
                    and site.callee.kind == "project"
                    and (site.callee.module, site.callee.qualname) in feeding
                    for site in pg.calls_of(func)
                )
            }
            feeding |= callers
        for func in pg.functions():
            if func.key not in feeding:
                continue
            for stmt, _pinned in pg.statements_of(func):
                if not isinstance(stmt, (ast.For, ast.AsyncFor)):
                    continue
                origin = pg.origin_of(stmt.iter, func)
                if not any(leaf.kind == "set" for _, leaf in pg.resolve(func, origin)):
                    continue
                key = (func.module_path, stmt.iter.lineno, stmt.iter.col_offset)
                findings.setdefault(key, pg.modules[func.module_path].finding(
                    self.rule_id,
                    stmt.iter,
                    "iterating a set in a function that feeds accounting "
                    "counters: set order varies per process, so "
                    "occurrence-ordered counters diverge from their "
                    "replay; iterate sorted(...) instead",
                ))


def _ambient(pg: ProjectGraph, func: FunctionInfo, origin: Origin) -> Optional[str]:
    """Dotted name of the ambient source feeding ``origin``, if any."""
    for _, leaf in pg.resolve(func, origin, derived=True):
        callee = leaf.callee
        if leaf.kind == "call" and callee is not None and callee.kind == "external":
            dotted = callee.dotted
            if dotted in AMBIENT_CALLS or dotted.split(".")[0] in AMBIENT_PREFIXES:
                return dotted
    return None


def _seed_expr(call: ast.Call) -> Optional[ast.expr]:
    """The seed argument of a ``default_rng`` call, unless absent or a
    literal (both deterministic or ``det-rng``'s business)."""
    seed: Optional[ast.expr] = None
    if call.args and not isinstance(call.args[0], ast.Starred):
        seed = call.args[0]
    else:
        seed = next((kw.value for kw in call.keywords if kw.arg == "seed"), None)
    return None if isinstance(seed, ast.Constant) else seed


def _map_args(target: FunctionInfo, call: ast.Call) -> Dict[str, ast.expr]:
    """Parameter name -> argument expression of ``call`` into ``target``."""
    params = [param.arg for param in target.params()]
    if target.class_name is not None and params[:1] in (["self"], ["cls"]):
        params = params[1:]
    mapping: Dict[str, ast.expr] = {}
    for param, arg in zip(params, call.args):
        if isinstance(arg, ast.Starred):
            break
        mapping[param] = arg
    for keyword in call.keywords:
        if keyword.arg is not None:
            mapping[keyword.arg] = keyword.value
    return mapping


register(RngProvenanceRule())
