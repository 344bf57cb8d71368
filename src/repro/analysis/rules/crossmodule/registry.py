"""Declared ownership registry for accounting counters.

:data:`COUNTER_CLASSES` is the registry consumed by the whole-program
``counter-ownership`` rule. Keys are ``"module_path::ClassName"``;
values are the modules allowed to mutate instances of that class.
Counter *fields* are discovered from the class definition itself
(numeric-defaulted dataclass fields and ``self.x = 0`` initializers),
so adding a counter to a registered class is automatically covered
without touching this file.

A class outside this registry can opt in by declaring
``__counter_class__ = True`` in its class body; its owning module is
then the module that defines it.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, List, Optional

from repro.analysis.project.graph import ClassInfo

#: ``module_path::ClassName`` -> modules allowed to mutate instances.
COUNTER_CLASSES: Dict[str, FrozenSet[str]] = {
    # Access-mix accounting behind the Figure 2 characterization and
    # the replay-equivalence checks.
    "repro/memstore/store.py::AccessSummary": frozenset(
        {"repro/memstore/store.py"}
    ),
    # Fault-injection / retry counters (reliability reporting).
    "repro/memstore/faults.py::FaultStats": frozenset(
        {"repro/memstore/faults.py"}
    ),
    # Hot-node cache hit/miss/invalidation counters (calibration).
    "repro/framework/cache.py::HotNodeCache": frozenset(
        {"repro/framework/cache.py"}
    ),
    # Online-mutation ingest counters.
    "repro/memstore/ingest.py::IngestStats": frozenset(
        {"repro/memstore/ingest.py"}
    ),
    # AxE coalescing-cache line counters.
    "repro/axe/cache.py::CacheStats": frozenset({"repro/axe/cache.py"}),
    # Multi-hop neighborhood cache hit/miss counters (pipelined trainer).
    "repro/gnn/pipeline.py::NeighborhoodCache": frozenset(
        {"repro/gnn/pipeline.py"}
    ),
}


def counter_fields(cinfo: ClassInfo) -> FrozenSet[str]:
    """Counter attribute names discovered from a class definition.

    A field counts if it is a class-level annotated assignment with a
    numeric (int/float/bool-free) constant default — the dataclass
    counter idiom — or a ``self.x = <numeric constant>`` initializer in
    ``__init__``. Private (``_``-prefixed) names are excluded.
    """
    fields: List[str] = []
    for stmt in cinfo.node.body:
        if (
            isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
            and not stmt.target.id.startswith("_")
            and _is_numeric_const(stmt.value)
        ):
            fields.append(stmt.target.id)
    init = cinfo.methods.get("__init__")
    if init is not None and not isinstance(init.node, ast.Module):
        for node in ast.walk(init.node):
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign) and _is_numeric_const(node.value):
                targets = list(node.targets)
            elif isinstance(node, ast.AnnAssign) and _is_numeric_const(
                node.value
            ):
                targets = [node.target]
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and not target.attr.startswith("_")
                ):
                    fields.append(target.attr)
    return frozenset(fields)


def _is_numeric_const(value: Optional[ast.expr]) -> bool:
    return (
        isinstance(value, ast.Constant)
        and isinstance(value.value, (int, float))
        and not isinstance(value.value, bool)
    )
