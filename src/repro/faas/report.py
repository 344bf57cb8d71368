"""Report formatting for the FaaS DSE figures.

Turns :class:`~repro.faas.dse.FaasResult` sweeps into the text tables
``repro dse`` and ``examples/faas_explorer.py`` print: per-point
throughput (Figure 17), normalized performance per dollar (Figure 18),
geomean summaries (Figures 19/21), and the minimal service cost
comparison (Figure 20).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.faas.dse import CpuBaselineResult, FaasDse, FaasResult
from repro.graph.datasets import DATASET_ORDER


def geomean(values: Sequence[float]) -> float:
    """Geometric mean of positive values."""
    values = list(values)
    if not values:
        raise ConfigurationError("geomean of an empty sequence")
    product = 1.0
    for value in values:
        if value <= 0:
            raise ConfigurationError(f"geomean requires positive values, got {value}")
        product *= value
    return product ** (1.0 / len(values))


def _group(
    results: Iterable[FaasResult],
) -> Dict[Tuple[str, str], Dict[str, FaasResult]]:
    """(arch, size) -> dataset -> result."""
    grouped: Dict[Tuple[str, str], Dict[str, FaasResult]] = defaultdict(dict)
    for result in results:
        grouped[(result.arch, result.size)][result.dataset] = result
    return grouped


def format_perf_table(
    results: Sequence[FaasResult], batch_size: int = 512
) -> str:
    """Figure 17: sampling throughput (batches/s) per instance."""
    grouped = _group(results)
    lines = [
        "arch            size    " + "".join(f"{d:>10}" for d in DATASET_ORDER) + "   geomean"
    ]
    for (arch, size), per_dataset in sorted(grouped.items()):
        row = [f"{arch:<15} {size:<7}"]
        values = []
        for dataset in DATASET_ORDER:
            result = per_dataset.get(dataset)
            if result is None:
                row.append(f"{'-':>10}")
            else:
                value = result.roots_per_second / batch_size
                values.append(value)
                row.append(f"{value:>10.1f}")
        row.append(f"{geomean(values):>9.1f}" if values else f"{'-':>9}")
        lines.append("".join(row))
    return "\n".join(lines)


def normalized_perf_per_dollar(
    results: Sequence[FaasResult], cpu_results: Sequence[CpuBaselineResult]
) -> Dict[Tuple[str, str, str], float]:
    """Figure 18 values: perf/$ normalized to the CPU geomean."""
    cpu_geomean = geomean([r.perf_per_dollar for r in cpu_results])
    return {
        (r.arch, r.size, r.dataset): r.perf_per_dollar / cpu_geomean
        for r in results
    }


def format_perf_per_dollar_table(
    results: Sequence[FaasResult], cpu_results: Sequence[CpuBaselineResult]
) -> str:
    """Figure 18: normalized perf/$ per (arch, size, dataset)."""
    normalized = normalized_perf_per_dollar(results, cpu_results)
    grouped: Dict[Tuple[str, str], Dict[str, float]] = defaultdict(dict)
    for (arch, size, dataset), value in normalized.items():
        grouped[(arch, size)][dataset] = value
    lines = [
        "arch            size    " + "".join(f"{d:>8}" for d in DATASET_ORDER) + "  geomean"
    ]
    for (arch, size), per_dataset in sorted(grouped.items()):
        row = [f"{arch:<15} {size:<7}"]
        values = []
        for dataset in DATASET_ORDER:
            value = per_dataset.get(dataset)
            if value is None:
                row.append(f"{'-':>8}")
            else:
                values.append(value)
                row.append(f"{value:>8.2f}")
        row.append(f"{geomean(values):>8.2f}" if values else f"{'-':>8}")
        lines.append("".join(row))
    return "\n".join(lines)


def arch_geomeans(
    results: Sequence[FaasResult],
    cpu_results: Sequence[CpuBaselineResult],
) -> Dict[str, float]:
    """Figure 21: per-architecture geomean of normalized perf/$ (over
    sizes and datasets)."""
    normalized = normalized_perf_per_dollar(results, cpu_results)
    per_arch: Dict[str, List[float]] = defaultdict(list)
    for (arch, _size, _dataset), value in normalized.items():
        per_arch[arch].append(value)
    return {arch: geomean(values) for arch, values in per_arch.items()}


def arch_perf_geomeans(results: Sequence[FaasResult]) -> Dict[str, float]:
    """Figure 19: per-architecture geomean throughput (roots/s)."""
    per_arch: Dict[str, List[float]] = defaultdict(list)
    for result in results:
        per_arch[result.arch].append(result.roots_per_second)
    return {arch: geomean(values) for arch, values in per_arch.items()}


def format_min_cost_table(
    dse: FaasDse,
    sizes: Sequence[str] = ("small", "medium", "large"),
    datasets: Sequence[str] = DATASET_ORDER,
) -> str:
    """Figure 20: minimal service cost, CPU vs FaaS.base, normalized to
    the ss CPU cost at each size."""
    lines = ["size    system  " + "".join(f"{d:>9}" for d in datasets)]
    for size in sizes:
        baseline = dse.min_service_cost("ss", size, faas=False)
        for faas in (False, True):
            name = "faas" if faas else "cpu"
            row = [f"{size:<7} {name:<7}"]
            for dataset in datasets:
                cost = dse.min_service_cost(dataset, size, faas=faas)
                row.append(f"{cost / baseline:>9.2f}")
            lines.append("".join(row))
    return "\n".join(lines)
