"""Determinism rules: no host clock, no unseeded randomness.

Every experiment in this reproduction is meant to be a pure function of
its configuration and seed — that is what made the batched-sampler
replay equivalence and the Figure 2 calibrations checkable. Two rules
enforce the two ways host nondeterminism leaks in:

``det-wallclock``
    The host clock (``time.*``, ``datetime.*``) is banned everywhere in
    ``repro``. Event-driven code (the serving gateway, the cluster, the
    AxE event kernel, dynamic-graph ingest) takes timestamps from the
    simulator clock, ``sim.now``; host timing is done from outside the
    package, by ``bench/``, and handed in by the caller.

``det-rng``
    Randomness must be an injected, explicitly-seeded
    ``np.random.Generator``. The stdlib ``random`` module (process-global
    state), seedless ``np.random.default_rng()``, and legacy
    module-level ``np.random.*`` calls (``seed``/``rand``/...) are all
    banned.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from repro.analysis.findings import Finding
from repro.analysis.rules import FileContext, Rule, dotted_name, register

#: Host-clock callables of the ``time`` module.
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

#: ``datetime`` names that read the host clock when imported.
DATETIME_CLOCK_NAMES = frozenset({"datetime", "date", "time"})

#: ``datetime`` methods that read the host clock.
DATETIME_CLOCK_CALLS = frozenset({"now", "utcnow", "today"})

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

_CLOCK_ADVICE = (
    "take simulated time from the simulator clock (sim.now), and host "
    "time from the caller (bench/ times the package from outside)"
)


def _module_aliases(tree: ast.Module, module: str) -> Set[str]:
    """Names the file binds to ``import module`` (including aliases)."""
    return {
        alias.asname or module
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == module
    }


class WallClockRule(Rule):
    rule_id = "det-wallclock"
    title = "no host-clock reads inside the package"
    rationale = (
        "Simulated latencies, SLO accounting, and replay equivalence are "
        "only trustworthy if no package code reads the wall clock: a "
        "time.time() stamp mixed into virtual-time (sim.now) arithmetic "
        "yields latencies no test can tell from load. Event-driven code "
        "takes time from the deterministic event kernel; host timing is "
        "taken from outside the package (bench/) and handed in."
    )

    def check(self, ctx: FileContext) -> List[Finding]:
        findings: List[Finding] = []
        time_aliases = _module_aliases(ctx.tree, "time")
        datetime_aliases = _module_aliases(ctx.tree, "datetime")

        def flag(node: ast.AST, what: str) -> None:
            message = f"{what} reads the host clock; {_CLOCK_ADVICE}"
            findings.append(ctx.finding(self.rule_id, node, message))

        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name in ("time", "datetime"):
                        flag(node, f"'import {alias.name}'")
            elif isinstance(node, ast.ImportFrom) and node.module == "time":
                flag(node, "'from time import ...'")
            elif isinstance(node, ast.ImportFrom) and node.module == "datetime":
                names = [a.name for a in node.names if a.name in DATETIME_CLOCK_NAMES]
                if names:
                    flag(node, f"importing datetime's {', '.join(names)}")
            elif isinstance(node, ast.Call):
                parts = (dotted_name(node.func) or "").split(".")
                if (parts[0] in time_aliases and parts[-1] in CLOCK_CALLS) or (
                    parts[0] in datetime_aliases and parts[-1] in DATETIME_CLOCK_CALLS
                ):
                    flag(node, f"'{'.'.join(parts)}()'")
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

        def flag(node: ast.AST, message: str) -> None:
            findings.append(ctx.finding(self.rule_id, node, message))

        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import) and any(
                alias.name == "random" for alias in node.names
            ):
                flag(node, "stdlib 'random' is process-global state; inject a "
                     "seeded np.random.Generator instead")
            elif isinstance(node, ast.ImportFrom) and node.module == "random":
                flag(node, "'from random import ...' is banned; inject a "
                     "seeded np.random.Generator instead")
            elif isinstance(node, ast.Call):
                parts = (dotted_name(node.func) or "").split(".")
                if len(parts) != 3 or parts[1] != "random":
                    continue
                if parts[0] not in numpy_aliases:
                    continue
                if parts[2] == "default_rng" and self._is_seedless(node):
                    flag(node, "seedless np.random.default_rng() draws OS "
                         "entropy; pass an explicit seed threaded from "
                         "configuration")
                elif parts[2] not in NP_RANDOM_ALLOWED:
                    flag(node, f"module-level 'np.random.{parts[2]}()' uses "
                         "hidden global RNG state; use a seeded "
                         "np.random.Generator")
        return findings

    @staticmethod
    def _is_seedless(call: ast.Call) -> bool:
        seed: Optional[ast.expr]
        if call.args:
            seed = call.args[0]
        else:
            seed = next((kw.value for kw in call.keywords if kw.arg == "seed"), None)
            if seed is None:
                return not call.keywords
        return isinstance(seed, ast.Constant) and seed.value is None


register(WallClockRule())
register(SeededRngRule())
