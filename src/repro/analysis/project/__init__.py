"""Whole-program analysis layer: the project graph.

Where a file rule sees one parsed file at a time, this package builds
a *project* view over a set of files: the import bindings of each
module, a per-module symbol table (top-level functions, classes, their
methods and ``self.*`` attribute types), an intraprocedural def-use
approximation (:class:`~repro.analysis.project.graph.Origin`), and a
call-graph approximation resolving dotted calls through imports,
``self.*`` methods, and locally-typed objects. The cross-module rule
family under :mod:`repro.analysis.rules.crossmodule` consumes this view
to check contracts no single file can witness: shared-memory planes
stay read-only, store reads stay under a pinned snapshot, RNG seeds
trace to injected entropy, and accounting counters mutate only in
their owning module.
"""

from repro.analysis.project.graph import (
    CallSite,
    Callee,
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    Origin,
    ProjectGraph,
    build_project,
    build_project_from_sources,
)

__all__ = [
    "CallSite",
    "Callee",
    "ClassInfo",
    "FunctionInfo",
    "ModuleInfo",
    "Origin",
    "ProjectGraph",
    "build_project",
    "build_project_from_sources",
]
