"""Whole-program rules: contracts no single file can witness.

The three rules in this package consume the
:class:`~repro.analysis.project.graph.ProjectGraph` every ``repro lint``
run builds and check the cross-cutting contracts the paper's
architecture depends on:

``pin-discipline``
    Store reads reached from sampler entry points happen under a
    pinned ``read_view()`` snapshot.
``rng-provenance``
    Seeds flowing into ``default_rng`` trace to injected entropy, and
    unordered set iteration never feeds accounting.
``counter-ownership``
    Registered counter classes mutate only in their owning modules,
    resolved by receiver *type* rather than attribute name.

Shared helpers live here; the counter ownership registry is
:mod:`repro.analysis.rules.crossmodule.registry`.
"""

from __future__ import annotations

import ast
from typing import Optional

from repro.analysis.findings import Finding
from repro.analysis.project.graph import FunctionInfo, ModuleInfo


def module_finding(
    minfo: ModuleInfo, rule_id: str, node: ast.AST, message: str
) -> Finding:
    """Build a Finding anchored at ``node`` inside ``minfo``."""
    line = int(getattr(node, "lineno", 1))
    col = int(getattr(node, "col_offset", 0)) + 1
    return Finding(
        path=minfo.module_path,
        line=line,
        col=col,
        rule=rule_id,
        message=message,
        snippet=minfo.snippet(line),
    )


def param_annotation(
    func: FunctionInfo, name: str
) -> Optional[ast.expr]:
    """Annotation expression of parameter ``name`` of ``func``, if any."""
    if isinstance(func.node, ast.Module):
        return None
    args = func.node.args
    for arg in (
        list(args.posonlyargs)
        + list(args.args)
        + list(args.kwonlyargs)
        + ([args.vararg] if args.vararg else [])
        + ([args.kwarg] if args.kwarg else [])
    ):
        if arg.arg == name:
            return arg.annotation
    return None
