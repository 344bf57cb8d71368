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
from typing import Dict, List, Set, Tuple, cast

from repro.analysis.findings import Finding
from repro.analysis.project.graph import (
    CallSite,
    FunctionInfo,
    ProjectGraph,
)
from repro.analysis.rules import ProjectRule, dotted_name, register
from repro.analysis.rules.crossmodule import module_finding

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

    def check_project(self, project: object) -> List[Finding]:
        pg = cast(ProjectGraph, project)
        entries = [
            func
            for func in pg.functions()
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
                state = (func.key, pinned)
                if state in seen:
                    continue
                seen.add(state)
                if func.module_path.startswith(STORE_MODULE_PREFIX):
                    continue
                minfo = pg.modules[func.module_path]
                for site in pg.calls_of(func):
                    effective = pinned or site.pinned
                    if not effective and self._is_store_read(pg, func, site):
                        node = site.node
                        key = (
                            func.module_path,
                            node.lineno,
                            node.col_offset,
                        )
                        if key not in findings:
                            findings[key] = module_finding(
                                minfo,
                                self.rule_id,
                                node,
                                f"store read "
                                f"'{dotted_name(node.func) or '?'}()' is "
                                f"reachable from sampler entry point "
                                f"{entry.class_name}.{entry.name} without "
                                "a read_view() pin; wrap the read path in "
                                "'with store.read_view():' so the walk "
                                "observes one snapshot epoch",
                            )
                    if (
                        site.callee is not None
                        and site.callee.kind == "project"
                    ):
                        target = pg.function(
                            site.callee.module, site.callee.qualname
                        )
                        if target is not None and not isinstance(
                            target.node, ast.Module
                        ):
                            stack.append((target, effective))
        return [findings[key] for key in sorted(findings)]

    @staticmethod
    def _is_store_read(
        pg: ProjectGraph, func: FunctionInfo, site: CallSite
    ) -> bool:
        node = site.node
        if not isinstance(node.func, ast.Attribute):
            return False
        if node.func.attr not in READ_METHODS:
            return False
        base = node.func.value
        base_dotted = dotted_name(base)
        if base_dotted is not None and "store" in base_dotted.split(".")[-1].lower():
            return True
        origin = pg.origin_of(base, func)
        if origin.kind == "selfattr":
            origin = pg.self_attr_origin(func, origin.attr)
        if (
            origin.kind == "call"
            and origin.callee is not None
            and origin.callee.kind == "project"
            and origin.callee.qualname.split(".")[0].endswith("Store")
        ):
            return True
        return False


register(PinDisciplineRule())
