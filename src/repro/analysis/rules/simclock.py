"""Simulated-time discipline for event-driven modules.

The serving gateway, the closed-loop service model, and the event
kernel itself advance a *virtual* clock (``sim.now``): arrival
timestamps, deadlines, and latency percentiles are all virtual-time
quantities, which is what makes a run a pure function of its seed.
These modules must not even import the host-clock modules — a
``time.time()`` timestamp mixed into virtual-time arithmetic produces
garbage latencies that no test can distinguish from load.
"""

from __future__ import annotations

import ast
from typing import List

from repro.analysis.findings import Finding
from repro.analysis.rules import FileContext, Rule, register

#: Event-driven modules whose clocks are simulated.
SIM_MODULE_PREFIXES = ("repro/serving/", "repro/cluster/")
SIM_MODULES = frozenset(
    {
        "repro/axe/events.py",
        # Online-mutation ingest: mutation timelines interleave with the
        # gateway's virtual clock, so Mutation.time_s must be sim time.
        "repro/graph/dynamic.py",
        "repro/memstore/ingest.py",
        # Layout and kernels: timed from outside the package (bench/);
        # the modules themselves must stay clock-free.
        "repro/memstore/locality.py",
        "repro/framework/kernels.py",
        # Pipelined trainer: epoch wall-clock is measured from outside
        # (bench/ train_* workloads); the trainer itself (and its
        # neighborhood cache) must stay clock-free so runs are a pure
        # function of the seed.
        "repro/gnn/pipeline.py",
    }
)


def _is_sim_module(module_path: str) -> bool:
    if module_path in SIM_MODULES:
        return True
    return any(module_path.startswith(p) for p in SIM_MODULE_PREFIXES)


class SimulatedClockRule(Rule):
    rule_id = "sim-clock"
    title = "event-driven modules take timestamps from the simulator clock"
    rationale = (
        "Gateway/scheduler/service timestamps are virtual-time values "
        "from the deterministic event kernel (sim.now). Importing time/"
        "datetime in these modules mixes host time into virtual-time "
        "arithmetic, silently corrupting latency and SLO accounting."
    )

    def check(self, ctx: FileContext) -> List[Finding]:
        if not _is_sim_module(ctx.module_path):
            return []
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name in ("time", "datetime"):
                        findings.append(
                            ctx.finding(
                                self.rule_id,
                                node,
                                f"simulated-time module imports host-clock "
                                f"module '{alias.name}'; event timestamps "
                                "must come from the Simulator clock "
                                "(sim.now)",
                            )
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module in ("time", "datetime"):
                    findings.append(
                        ctx.finding(
                            self.rule_id,
                            node,
                            f"simulated-time module imports from host-clock "
                            f"module '{node.module}'; use the Simulator "
                            "clock (sim.now)",
                        )
                    )
        return findings


register(SimulatedClockRule())
