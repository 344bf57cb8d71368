"""shm-view-write: shared-memory plane arrays stay read-only.

The parallel engine's zero-copy design hinges on one invariant: the
CSR arrays exported through :mod:`repro.parallel.shm` (graph planes)
are mapped into every shard worker *without copies*, so a single
in-place write anywhere corrupts the graph for all workers at once —
silently, because NumPy views over shared buffers raise nothing.

This rule taints every value that flows from a plane producer
(``attach_graph``/``export_graph``/``GraphPlane``/``AttachedGraph``)
or a raw-block producer (``SharedBlock``/``AttachedBlock``/
``view_array``/``pack_arrays``) — through attribute access,
subscripts, tuple unpacking, cross-module helper returns, and
``np.frombuffer``/``ndarray(buffer=...)`` wrapping — and flags any
write through a tainted value (subscript/slice assignment, augmented
assignment, ``out=`` keyword) outside the allowed writer modules.
Graph-plane taint may be written only inside ``repro/parallel/shm.py``
itself; raw-block taint also inside ``repro/parallel/worker.py``
(shard workers own their result arenas).

Approximation: taint does not flow *into* function parameters — a
callee writing to an array it received as an argument is the caller's
responsibility (the per-file view of the callee cannot know).
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Tuple, cast

from repro.analysis.findings import Finding
from repro.analysis.project.graph import (
    FunctionInfo,
    Origin,
    ProjectGraph,
    stmt_expressions,
)
from repro.analysis.rules import ProjectRule, register
from repro.analysis.rules.crossmodule import module_finding

#: The plane module: the only place graph-plane arrays may be built.
SHM_MODULE = "repro/parallel/shm.py"

#: shm symbols producing graph-plane views (read-only everywhere else).
GRAPH_PRODUCERS = frozenset(
    {"attach_graph", "export_graph", "GraphPlane", "AttachedGraph"}
)

#: shm symbols producing raw shared blocks (writable by block owners).
RAW_PRODUCERS = frozenset(
    {"SharedBlock", "AttachedBlock", "view_array", "pack_arrays"}
)

#: Modules allowed to write through raw-block taint.
RAW_WRITERS = frozenset({SHM_MODULE, "repro/parallel/worker.py"})

#: External callables that wrap a buffer without copying it.
_BUFFER_WRAPPERS = frozenset({"frombuffer", "ndarray", "asarray"})


class ShmViewWriteRule(ProjectRule):
    rule_id = "shm-view-write"
    title = "shared-memory plane arrays are never written outside shm"
    rationale = (
        "Graph planes are mapped zero-copy into every shard worker; an "
        "in-place write through any view corrupts the CSR arrays for "
        "all workers without raising. Only repro/parallel/shm.py may "
        "touch plane memory (and worker.py its own result arenas); "
        "everyone else treats plane arrays as frozen."
    )

    def __init__(self) -> None:
        self._return_taint: Dict[Tuple[str, str], Optional[str]] = {}

    def check_project(self, project: object) -> List[Finding]:
        pg = cast(ProjectGraph, project)
        findings: Dict[Tuple[str, int, int], Finding] = {}
        self._return_taint = {}
        for func in pg.functions():
            self._check_function(pg, func, findings)
        return [findings[key] for key in sorted(findings)]

    # ------------------------------------------------------------ checking
    def _check_function(
        self,
        pg: ProjectGraph,
        func: FunctionInfo,
        findings: Dict[Tuple[str, int, int], Finding],
    ) -> None:
        minfo = pg.modules[func.module_path]
        for stmt, _pinned in pg.statements_of(func):
            write_targets: List[Tuple[ast.expr, bool]] = []
            if isinstance(stmt, ast.Assign):
                # Plain assignment to a bare name is a rebinding, not a
                # write; only subscript/slice targets touch memory.
                write_targets = [(t, False) for t in stmt.targets]
            elif isinstance(stmt, ast.AugAssign):
                write_targets = [(stmt.target, True)]
            for target, in_place in write_targets:
                tainted = self._write_taint(pg, func, target, in_place)
                if tainted is None:
                    continue
                if self._allowed(tainted, func.module_path):
                    continue
                key = (func.module_path, target.lineno, target.col_offset)
                findings[key] = module_finding(
                    minfo,
                    self.rule_id,
                    target,
                    self._message(tainted, "written in place"),
                )
            if isinstance(stmt, (ast.Expr, ast.Assign, ast.AugAssign, ast.Return)):
                for node in stmt_expressions(stmt):
                    if not isinstance(node, ast.Call):
                        continue
                    for keyword in node.keywords:
                        if keyword.arg != "out":
                            continue
                        tainted = self._taint_of(
                            pg, func, pg.origin_of(keyword.value, func), 6
                        )
                        if tainted is None:
                            continue
                        if self._allowed(tainted, func.module_path):
                            continue
                        key = (
                            func.module_path,
                            keyword.value.lineno,
                            keyword.value.col_offset,
                        )
                        findings[key] = module_finding(
                            minfo,
                            self.rule_id,
                            keyword.value,
                            self._message(tainted, "used as an out= target"),
                        )

    @staticmethod
    def _allowed(taint: str, module_path: str) -> bool:
        if taint == "graph":
            return module_path == SHM_MODULE
        return module_path in RAW_WRITERS

    def _message(self, taint: str, what: str) -> str:
        if taint == "graph":
            return (
                f"shared graph-plane array {what}: plane views are "
                "mapped zero-copy into every shard worker and may only "
                f"be written inside {SHM_MODULE}"
            )
        return (
            f"shared-memory block array {what}: raw block views may "
            f"only be written by their owners "
            f"({', '.join(sorted(RAW_WRITERS))})"
        )

    # --------------------------------------------------------------- taint
    def _write_taint(
        self,
        pg: ProjectGraph,
        func: FunctionInfo,
        target: ast.expr,
        in_place: bool,
    ) -> Optional[str]:
        """Taint kind of a write target (``x[...] = `` / ``x += ``)."""
        if isinstance(target, ast.Subscript):
            return self._taint_of(
                pg, func, pg.origin_of(target.value, func), 6
            )
        if in_place and isinstance(target, (ast.Attribute, ast.Name)):
            # Augmented assignment mutates through the value itself.
            return self._taint_of(pg, func, pg.origin_of(target, func), 6)
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                taint = self._write_taint(pg, func, elt, in_place)
                if taint is not None:
                    return taint
        return None

    def _taint_of(
        self,
        pg: ProjectGraph,
        func: FunctionInfo,
        origin: Origin,
        depth: int,
    ) -> Optional[str]:
        if depth <= 0:
            return None
        if origin.kind in ("attr", "sub", "elt"):
            if origin.base is None:
                return None
            return self._taint_of(pg, func, origin.base, depth - 1)
        if origin.kind == "selfattr":
            return self._taint_of(
                pg, func, pg.self_attr_origin(func, origin.attr), depth - 1
            )
        if origin.kind in ("tuple", "binop"):
            for item in origin.items:
                taint = self._taint_of(pg, func, item, depth - 1)
                if taint is not None:
                    return taint
            return None
        if origin.kind != "call" or origin.callee is None:
            return None
        callee = origin.callee
        if callee.kind == "project":
            head = callee.qualname.split(".")[0]
            if callee.module == SHM_MODULE:
                if head in GRAPH_PRODUCERS:
                    return "graph"
                if head in RAW_PRODUCERS:
                    return "raw"
                return None
            return self._callee_return_taint(pg, callee.module, callee.qualname)
        # External wrappers that alias an existing buffer.
        last = callee.dotted.split(".")[-1]
        if last in _BUFFER_WRAPPERS and isinstance(origin.node, ast.Call):
            call = origin.node
            for arg in list(call.args)[:1]:
                taint = self._taint_of(
                    pg, func, pg.origin_of(arg, func), depth - 1
                )
                if taint is not None:
                    return taint
            for keyword in call.keywords:
                if keyword.arg == "buffer":
                    taint = self._taint_of(
                        pg, func, pg.origin_of(keyword.value, func), depth - 1
                    )
                    if taint is not None:
                        return taint
        return None

    def _callee_return_taint(
        self, pg: ProjectGraph, module: str, qualname: str
    ) -> Optional[str]:
        """Taint of a project function's return value (memoized)."""
        key = (module, qualname)
        if key in self._return_taint:
            return self._return_taint[key]
        self._return_taint[key] = None  # cycle guard
        target = pg.function(module, qualname)
        if target is None:
            return None
        taint: Optional[str] = None
        for ret in pg.returns_of(target):
            taint = self._taint_of(pg, target, pg.origin_of(ret, target), 6)
            if taint is not None:
                break
        self._return_taint[key] = taint
        return taint


register(ShmViewWriteRule())
