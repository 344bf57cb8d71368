"""The card is described once: ``CoreConfig`` and ``AXE_CLOCK_HZ``.

An AST scan (nothing is imported or executed) of the packages that
model the card — ``repro.axe``, ``repro.perfmodel`` and ``repro.faas``.
A hardware-spec value may be a dataclass field default or a parameter
default only in its one home: the tag budget and the request shapes in
``CoreConfig``, the clock in the ``AXE_CLOCK_HZ`` constant. Anywhere
else such a default must read the home (``CoreConfig.max_tags``), and
the clock's value is a literal only where ``AXE_CLOCK_HZ`` is defined.
"""

import ast
import dataclasses
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGES = ("axe", "perfmodel", "faas")
HOME_MODULE = "repro/axe/core.py"

#: Spec names whose default lives in ``CoreConfig``'s field of that name.
CORE_FIELDS = {"max_tags", "offset_read_bytes", "line_bytes", "id_bytes"}
#: Every spec name: the core fields, the tag budget under its model
#: name, and the clock (whose home is ``AXE_CLOCK_HZ``, not a field).
SPEC_NAMES = CORE_FIELDS | {"tags_per_core", "frequency_hz"}
HOMES = {"CoreConfig", "AXE_CLOCK_HZ"}
CLOCK_HZ = 250e6


def _defaults(tree):
    """``(owner, name, default)`` for every class-body field default and
    every parameter default in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if (
                    isinstance(stmt, ast.AnnAssign)
                    and stmt.value is not None
                    and isinstance(stmt.target, ast.Name)
                ):
                    yield node.name, stmt.target.id, stmt.value
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = args.posonlyargs + args.args
            with_default = positional[len(positional) - len(args.defaults):]
            for arg, default in zip(with_default, args.defaults):
                yield node.name, arg.arg, default
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield node.name, arg.arg, default


def _reads_home(expr):
    return any(
        isinstance(node, ast.Name) and node.id in HOMES for node in ast.walk(expr)
    )


def second_homes(source, module):
    """``module:line owner.name`` for every spec value defined outside
    its home in ``source`` (the text of ``src/<module>``)."""
    tree = ast.parse(source)
    found = []
    for owner, name, default in _defaults(tree):
        if name not in SPEC_NAMES or _reads_home(default):
            continue
        if module == HOME_MODULE and owner == "CoreConfig" and name in CORE_FIELDS:
            continue
        found.append(f"{module}:{default.lineno} {owner}.{name}")
    home_values = {
        id(node.value)
        for node in ast.walk(tree)
        if module == HOME_MODULE
        and isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["AXE_CLOCK_HZ"]
    }
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Constant)
            and type(node.value) in (int, float)
            and node.value == CLOCK_HZ
            and id(node) not in home_values
        ):
            found.append(f"{module}:{node.lineno} clock literal {node.value!r}")
    return found


def test_every_spec_default_reads_its_one_home():
    found = []
    for package in PACKAGES:
        for path in sorted((SRC / "repro" / package).rglob("*.py")):
            module = path.relative_to(SRC).as_posix()
            found += second_homes(path.read_text(encoding="utf-8"), module)
    assert found == [], "second homes of a hardware-spec value: " + ", ".join(found)


def test_the_scan_tracks_the_homes():
    """A renamed field or clock would leave the scan guarding nothing."""
    from repro.axe.core import AXE_CLOCK_HZ, CoreConfig

    assert AXE_CLOCK_HZ == CLOCK_HZ
    assert CORE_FIELDS <= {field.name for field in dataclasses.fields(CoreConfig)}


def test_scan_flags_a_second_home_and_passes_a_read():
    source = (
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class Model:\n"
        "    tags_per_core: int = 256\n"
        "    id_bytes: int = CoreConfig.id_bytes\n"
        "def run(sim, max_tags=64, *, frequency_hz=AXE_CLOCK_HZ):\n"
        "    return sim / 250e6\n"
    )
    assert second_homes(source, "repro/perfmodel/model.py") == [
        "repro/perfmodel/model.py:4 Model.tags_per_core",
        "repro/perfmodel/model.py:6 run.max_tags",
        "repro/perfmodel/model.py:7 clock literal 250000000.0",
    ]
    home = "AXE_CLOCK_HZ = 250e6\nclass CoreConfig:\n    line_bytes: int = 64\n"
    assert second_homes(home, HOME_MODULE) == []
    assert second_homes(home, "repro/faas/dse.py") == [
        "repro/faas/dse.py:3 CoreConfig.line_bytes",
        "repro/faas/dse.py:1 clock literal 250000000.0",
    ]
