"""Determinism rules: no host clock, no unseeded randomness.

Every experiment in this reproduction is meant to be a pure function of
its configuration and seed — that is what made the batched-sampler
replay equivalence and the Figure 2 calibrations checkable. Two rules
enforce the two ways host nondeterminism leaks in:

``det-wallclock``
    The host clock (``time.*``, ``datetime.*``) is banned everywhere in
    ``repro``. Simulated components take time from the event kernel;
    host timing is done from outside the package, by ``bench/``.

``det-rng``
    Randomness must be an injected, explicitly-seeded
    ``np.random.Generator``. The stdlib ``random`` module (process-global
    state), seedless ``np.random.default_rng()``, and legacy
    module-level ``np.random.*`` calls (``seed``/``rand``/...) are all
    banned.
"""

from __future__ import annotations

import ast
from typing import List, Set

from repro.analysis.findings import Finding
from repro.analysis.rules import FileContext, Rule, dotted_name, register

#: Host-clock callables, by dotted name relative to their module.
CLOCK_CALLS = frozenset(
    {
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "process_time_ns",
        "clock_gettime",
    }
)

#: ``datetime`` names that read the host clock when imported/called.
DATETIME_CLOCK_NAMES = frozenset({"datetime", "date", "time"})

#: ``np.random`` attributes that are fine: explicit generator plumbing.
NP_RANDOM_ALLOWED = frozenset(
    {
        "default_rng",
        "Generator",
        "BitGenerator",
        "SeedSequence",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }
)


def _module_aliases(tree: ast.Module, module: str) -> Set[str]:
    """Names the file binds to ``import module`` (including aliases)."""
    aliases: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == module:
                    aliases.add(alias.asname or module)
    return aliases


class WallClockRule(Rule):
    rule_id = "det-wallclock"
    title = "no host-clock reads inside the package"
    rationale = (
        "Simulated latencies, SLO accounting, and replay equivalence are "
        "only trustworthy if no simulator code reads the wall clock. Host "
        "timing is taken from outside the package (bench/); everything "
        "inside takes time from the deterministic event kernel."
    )

    def check(self, ctx: FileContext) -> List[Finding]:
        findings: List[Finding] = []
        time_aliases = _module_aliases(ctx.tree, "time")
        datetime_aliases = _module_aliases(ctx.tree, "datetime")
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name in ("time", "datetime"):
                        findings.append(
                            ctx.finding(
                                self.rule_id,
                                node,
                                f"host-clock module 'import {alias.name}' is "
                                "banned in repro; time the code from "
                                "bench/ or use the simulator clock for "
                                "simulated time",
                            )
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "time":
                    findings.append(
                        ctx.finding(
                            self.rule_id,
                            node,
                            "'from time import ...' is banned in repro",
                        )
                    )
                elif node.module == "datetime":
                    clocky = [
                        alias.name
                        for alias in node.names
                        if alias.name in DATETIME_CLOCK_NAMES
                    ]
                    if clocky:
                        findings.append(
                            ctx.finding(
                                self.rule_id,
                                node,
                                "importing host-clock datetime names "
                                f"({', '.join(clocky)}) is banned; "
                                "simulated timestamps come from the event "
                                "kernel",
                            )
                        )
            elif isinstance(node, ast.Call):
                dotted = dotted_name(node.func)
                if dotted is None:
                    continue
                parts = dotted.split(".")
                if parts[0] in time_aliases and parts[-1] in CLOCK_CALLS:
                    findings.append(
                        ctx.finding(
                            self.rule_id,
                            node,
                            f"host-clock call '{dotted}()' is banned; time "
                            "the code from bench/ or use the simulator "
                            "clock",
                        )
                    )
                elif parts[0] in datetime_aliases and parts[-1] in (
                    "now",
                    "utcnow",
                    "today",
                ):
                    findings.append(
                        ctx.finding(
                            self.rule_id,
                            node,
                            f"host-clock call '{dotted}()' is banned",
                        )
                    )
        return findings


class SeededRngRule(Rule):
    rule_id = "det-rng"
    title = "randomness must be an injected, seeded np.random.Generator"
    rationale = (
        "A random draw that does not flow through a seeded Generator "
        "breaks run-to-run reproducibility and the replay-equivalence "
        "checks. The stdlib random module and legacy np.random module "
        "state are process-global and unseedable per-component."
    )

    def check(self, ctx: FileContext) -> List[Finding]:
        findings: List[Finding] = []
        numpy_aliases = _module_aliases(ctx.tree, "numpy") | {"np"}
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random":
                        findings.append(
                            ctx.finding(
                                self.rule_id,
                                node,
                                "stdlib 'random' is process-global state; "
                                "inject a seeded np.random.Generator "
                                "instead",
                            )
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    findings.append(
                        ctx.finding(
                            self.rule_id,
                            node,
                            "'from random import ...' is banned; inject a "
                            "seeded np.random.Generator instead",
                        )
                    )
            elif isinstance(node, ast.Call):
                dotted = dotted_name(node.func)
                if dotted is None:
                    continue
                parts = dotted.split(".")
                if (
                    len(parts) == 3
                    and parts[0] in numpy_aliases
                    and parts[1] == "random"
                ):
                    attr = parts[2]
                    if attr == "default_rng":
                        if self._is_seedless(node):
                            findings.append(
                                ctx.finding(
                                    self.rule_id,
                                    node,
                                    "seedless np.random.default_rng() draws "
                                    "OS entropy; pass an explicit seed "
                                    "threaded from configuration",
                                )
                            )
                    elif attr not in NP_RANDOM_ALLOWED:
                        findings.append(
                            ctx.finding(
                                self.rule_id,
                                node,
                                f"module-level 'np.random.{attr}()' uses "
                                "hidden global RNG state; use a seeded "
                                "np.random.Generator",
                            )
                        )
        return findings

    @staticmethod
    def _is_seedless(call: ast.Call) -> bool:
        if not call.args and not call.keywords:
            return True
        if call.args:
            first = call.args[0]
            return isinstance(first, ast.Constant) and first.value is None
        for keyword in call.keywords:
            if keyword.arg == "seed":
                value = keyword.value
                return isinstance(value, ast.Constant) and value.value is None
        return False


register(WallClockRule())
register(SeededRngRule())
