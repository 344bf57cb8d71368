"""Exception hygiene on the fault paths.

The retry/fault/serving machinery exists to *account for* failures:
a handler that silently discards an exception on those paths erases
exactly the events the fault counters and degraded-completion stats
are supposed to measure. Bare ``except:`` is banned everywhere (it
also catches ``KeyboardInterrupt``/``SystemExit``); on the fault-path
modules a handler must do *something* — re-raise, return/record a
value, or call a recording helper — rather than pass/continue.
"""

from __future__ import annotations

import ast
from typing import List

from repro.analysis.findings import Finding
from repro.analysis.rules import FileContext, Rule, register

#: Module prefixes whose except handlers must not swallow-and-continue.
FAULT_PATH_PREFIXES = (
    "repro/memstore/",
    "repro/serving/",
    "repro/cluster/",
)
FAULT_PATH_MODULES = frozenset(
    {
        "repro/framework/sampler.py",
        # The reference walk's degraded-read handlers live here.
        "repro/framework/replay.py",
        # Compaction/ingest errors must surface, not be swallowed —
        # a half-applied mutation batch is a correctness bug.
        # (repro/memstore/ingest.py is covered by the prefix above.)
        "repro/graph/dynamic.py",
        # Pipelined trainer: a failed micro-batch must drain the
        # pipeline (counted in drain_failures) and propagate, never be
        # swallowed mid-epoch.
        "repro/gnn/pipeline.py",
        "repro/parallel/pipeline.py",
    }
)


def _on_fault_path(module_path: str) -> bool:
    if module_path in FAULT_PATH_MODULES:
        return True
    return any(module_path.startswith(p) for p in FAULT_PATH_PREFIXES)


def _is_noop(stmt: ast.stmt) -> bool:
    """Statements that neither handle, record, nor re-raise."""
    if isinstance(stmt, (ast.Pass, ast.Continue, ast.Break)):
        return True
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
        return True  # docstring / ellipsis
    return False


class ExceptionSwallowRule(Rule):
    rule_id = "except-swallow"
    title = "no bare except; fault paths must not swallow-and-continue"
    rationale = (
        "The fault injector, retry path, and serving gateway are "
        "measurement instruments: a swallowed exception is a fault that "
        "happened but was never counted, which silently falsifies "
        "failed_reads/degraded statistics. Handlers must re-raise or "
        "record to stats."
    )

    def check(self, ctx: FileContext) -> List[Finding]:
        findings: List[Finding] = []
        fault_path = _on_fault_path(ctx.module_path)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                findings.append(
                    ctx.finding(
                        self.rule_id,
                        node,
                        "bare 'except:' catches KeyboardInterrupt/"
                        "SystemExit too; name the exception type",
                    )
                )
                continue
            if fault_path and all(_is_noop(stmt) for stmt in node.body):
                exc = ast.unparse(node.type) if node.type is not None else ""
                findings.append(
                    ctx.finding(
                        self.rule_id,
                        node,
                        f"handler for {exc} swallows the exception on a "
                        "fault path; re-raise or record it to the fault "
                        "stats",
                    )
                )
        return findings


register(ExceptionSwallowRule())
