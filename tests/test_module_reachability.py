"""Every module under src/repro is imported by something that runs.

An AST scan (nothing is imported or executed): a module is reached when
another ``src/repro`` module — not itself, not its own package
``__init__`` re-exporting it — a file under ``examples/`` or ``bench/``,
or one of the ``tests/test_paper_*.py`` modules that regenerate the
paper's figures imports it. Other tests do not count: a module only its
own test imports is an island (ROADMAP item 7).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Islands at this list's last edit. It may only shrink: wire a module
#: in (or delete it) and remove its entry; never add one.
KNOWN_ISLANDS = {
    "repro.gnn.gcn",
    "repro.memstore.index",
    "repro.mof.fabric",
}


def _imports(path):
    """``(module, name)`` for every absolute import in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            yield from ((node.module, alias.name) for alias in node.names)


def _module_name(path):
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def test_islands_are_exactly_the_known_list():
    files = {
        _module_name(path): path
        for path in SRC.rglob("*.py")
        if "fixtures" not in path.parts
    }
    # (package, Name) -> the module the package __init__ takes Name from.
    reexports = {
        (package, name): module
        for package, path in files.items()
        if path.name == "__init__.py"
        for module, name in _imports(path)
    }
    users = list(files.items())
    for folder in ("examples", "bench"):
        users += [(None, path) for path in (ROOT / folder).rglob("*.py")]
    users += [(None, path) for path in (ROOT / "tests").glob("test_paper_*.py")]
    reached = set()
    for user, path in users:
        for module, name in _imports(path):
            candidates = (f"{module}.{name}", reexports.get((module, name)), module)
            target = next((c for c in candidates if c in files), None)
            # A module importing itself, or its own package's __init__
            # re-exporting it, is not a use.
            if target and user not in (target, target.rpartition(".")[0]):
                reached.add(target)
    islands = {
        module
        for module, path in files.items()
        if module not in reached
        and path.name != "__init__.py"  # runs whenever one of its modules does
        and module != "repro.__main__"
        and not module.startswith("repro.analysis.rules.")  # self-registering
    }
    assert islands == KNOWN_ISLANDS, (
        f"new islands {sorted(islands - KNOWN_ISLANDS)}; "
        f"stale entries {sorted(KNOWN_ISLANDS - islands)}"
    )


#: Modules no ``src/repro`` file may import: shard workers inherit the
#: graph at start and return their layers in their pipe replies, so
#: nothing maps memory shared between processes.
FORBIDDEN_IMPORTS = {"multiprocessing.shared_memory", "mmap"}


def test_no_shared_memory_imports():
    offenders = sorted(
        f"{path.relative_to(SRC)} imports {target}"
        for path in SRC.rglob("*.py")
        for module, name in _imports(path)
        for target in (module, f"{module}.{name}")
        if target in FORBIDDEN_IMPORTS
    )
    assert not offenders, offenders


def _importers(predicate):
    """``src/repro`` modules with at least one import ``predicate`` accepts."""
    return {
        _module_name(path)
        for path in SRC.rglob("*.py")
        if any(predicate(module, name) for module, name in _imports(path))
    }


def test_worker_processes_stay_in_the_parallel_plane():
    """Only the parallel plane and the trainer reach the sharded engine,
    and only the parallel plane starts processes: sessions sample inline."""
    engine_users = _importers(lambda module, name: name == "ParallelSampler")
    assert {
        module
        for module in engine_users
        if not module.startswith("repro.parallel")
    } <= {"repro.gnn.pipeline"}
    process_users = _importers(
        lambda module, name: module.split(".")[0] == "multiprocessing"
    )
    assert process_users and all(
        module.startswith("repro.parallel") for module in process_users
    ), sorted(process_users)
