"""pin-discipline: sampler-reachable store reads stay under read_view.

A multi-hop walk must observe exactly one snapshot epoch: the dynamic
store (``DynamicPartitionedStore``) pins the live graph inside a
``with store.read_view():`` block, and every neighbor/attribute read
issued during a sample must happen under that pin — a read outside it
can interleave with a concurrent mutation batch and tear the walk
across two epochs (the exact failure the torn-read probe in
``tests/test_memstore_ingest.py`` looks for). On the static store
``read_view()`` is a free no-op, so the discipline costs nothing where
mutation is off.

The rule walks the resolved call graph from sampler entry points
(``sample``/``negative_sample`` methods on ``*Sampler*`` classes),
carrying a "pinned" flag that becomes true when a call edge sits
lexically inside a ``read_view()`` block, and flags any reachable
store read (``get_neighbors[_batch]``/``get_attributes[_batch]`` on a
store-typed receiver) executed unpinned. Store-internal modules
(``repro/memstore/``) are exempt: the store implements the pin.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Set, Tuple

from repro.analysis.findings import Finding
from repro.analysis.project import CallSite, FunctionInfo, ProjectGraph
from repro.analysis.rules import ProjectRule, dotted_name, register

#: Store read methods a sampler walk issues.
READ_METHODS = frozenset(
    {
        "get_neighbors",
        "get_neighbors_batch",
        "get_attributes",
        "get_attributes_batch",
    }
)

#: Modules that implement the store (and the pin) themselves.
STORE_MODULE_PREFIX = "repro/memstore/"


class PinDisciplineRule(ProjectRule):
    rule_id = "pin-discipline"
    title = "sampler-reachable store reads run under a read_view() pin"
    rationale = (
        "One sample must see one snapshot epoch. A store read reached "
        "from a sampler entry point but outside the read_view() context "
        "can interleave with an online mutation batch and tear the "
        "multi-hop walk across epochs, silently corrupting results the "
        "replay-equivalence checks assume stable."
    )

    def check_project(self, project: ProjectGraph) -> List[Finding]:
        entries = [
            func
            for func in project.functions()
            if func.class_name is not None
            and "Sampler" in func.class_name
            and func.name in ("sample", "negative_sample")
        ]
        findings: Dict[Tuple[str, int, int], Finding] = {}
        seen: Set[Tuple[Tuple[str, str], bool]] = set()
        for entry in entries:
            stack: List[Tuple[FunctionInfo, bool]] = [(entry, False)]
            while stack:
                func, pinned = stack.pop()
                if (func.key, pinned) in seen or func.module_path.startswith(
                    STORE_MODULE_PREFIX
                ):
                    continue
                seen.add((func.key, pinned))
                for site in project.calls_of(func):
                    effective = pinned or site.pinned
                    node = site.node
                    if not effective and _is_store_read(project, func, site):
                        key = (func.module_path, node.lineno, node.col_offset)
                        minfo = project.modules[func.module_path]
                        findings.setdefault(key, minfo.finding(
                            self.rule_id,
                            node,
                            f"store read '{dotted_name(node.func) or '?'}()' "
                            "is reachable from sampler entry point "
                            f"{entry.class_name}.{entry.name} without a "
                            "read_view() pin; wrap the read path in 'with "
                            "store.read_view():' so the walk observes one "
                            "snapshot epoch",
                        ))
                    target = project.target_of(site.callee)
                    if target is not None:
                        stack.append((target, effective))
        return [findings[key] for key in sorted(findings)]


def _is_store_read(pg: ProjectGraph, func: FunctionInfo, site: CallSite) -> bool:
    """A read method called on something named or typed as a store."""
    call = site.node.func
    if not isinstance(call, ast.Attribute) or call.attr not in READ_METHODS:
        return False
    name = dotted_name(call.value)
    if name is not None and "store" in name.split(".")[-1].lower():
        return True
    cls = pg.class_of(func, pg.origin_of(call.value, func))
    return cls is not None and cls[1].endswith("Store")


register(PinDisciplineRule())
