"""The counter registry: which classes hold accounting counters.

:data:`COUNTER_CLASSES` is the one declaration both whole-program rules
read: ``counter-ownership`` lets only the defining module mutate an
instance's counters, and ``rng-provenance`` treats a function that
mutates one as feeding accounting. Counter *fields* are discovered
from the class definition itself (numeric-defaulted dataclass fields
and ``self.x = 0`` initializers), so adding a counter to a registered
class is covered without touching this file.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, List, Optional

from repro.analysis.project import ClassInfo, ClassKey, ProjectGraph

#: Counter classes as ``module_path::ClassName``; each is owned by the
#: module that defines it.
COUNTER_CLASSES: FrozenSet[str] = frozenset(
    {
        # Access-mix accounting behind the Figure 2 characterization
        # and the replay-equivalence checks.
        "repro/memstore/store.py::AccessSummary",
        # Fault-injection / retry counters (reliability reporting).
        "repro/memstore/faults.py::FaultStats",
        # Hot-node cache hit/miss/invalidation counters (calibration).
        "repro/framework/cache.py::HotNodeCache",
        # Online-mutation ingest counters.
        "repro/memstore/ingest.py::IngestStats",
        # AxE coalescing-cache line counters.
        "repro/axe/cache.py::CacheStats",
        # Multi-hop neighborhood cache hit/miss counters (trainer).
        "repro/gnn/pipeline.py::NeighborhoodCache",
    }
)

#: Recording helpers: calling one means the caller feeds accounting.
ACCOUNTING_SINKS = frozenset(
    {"_record", "_record_batch", "record_gather", "absorb_summary"}
)


def counter_classes(pg: ProjectGraph) -> Dict[ClassKey, FrozenSet[str]]:
    """The registered counter classes present in ``pg``, each with its
    counter field names."""
    table: Dict[ClassKey, FrozenSet[str]] = {}
    for entry in sorted(COUNTER_CLASSES):
        module, name = entry.split("::", 1)
        cinfo = pg.class_info(module, name)
        if cinfo is not None:
            table[(module, name)] = counter_fields(cinfo)
    return table


def counter_fields(cinfo: ClassInfo) -> FrozenSet[str]:
    """Counter attribute names discovered from a class definition.

    A field counts if it is a class-level annotated assignment with a
    numeric (int/float, not bool) constant default — the dataclass
    counter idiom — or a ``self.x = <numeric constant>`` initializer in
    ``__init__``. Private (``_``-prefixed) names are excluded.
    """
    fields: List[str] = [
        stmt.target.id
        for stmt in cinfo.node.body
        if isinstance(stmt, ast.AnnAssign)
        and isinstance(stmt.target, ast.Name)
        and _is_numeric_const(stmt.value)
    ]
    init = cinfo.methods.get("__init__")
    if init is not None:
        for node in ast.walk(init.node):
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and _is_numeric_const(
                node.value
            ):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                fields.extend(
                    target.attr
                    for target in targets
                    if isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                )
    return frozenset(name for name in fields if not name.startswith("_"))


def _is_numeric_const(value: Optional[ast.expr]) -> bool:
    return (
        isinstance(value, ast.Constant)
        and isinstance(value.value, (int, float))
        and not isinstance(value.value, bool)
    )
