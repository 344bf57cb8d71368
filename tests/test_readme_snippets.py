"""README.md's python snippets name only what the package has.

Every ``from repro... import ...`` in a README python block must
resolve, and every keyword a snippet passes to a sampler or session
constructor must be a parameter of that constructor, so a snippet
cannot outlive an argument the code no longer takes.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

from repro.api import GnnSession
from repro.framework.sampler import MultiHopSampler
from repro.parallel import ParallelSampler

README = Path(__file__).resolve().parents[1] / "README.md"
CONSTRUCTORS = {
    "GnnSession": GnnSession,
    "MultiHopSampler": MultiHopSampler,
    "ParallelSampler": ParallelSampler,
}


def python_blocks():
    text = README.read_text(encoding="utf-8")
    return [ast.parse(block) for block in re.findall(r"```python\n(.*?)```", text, re.S)]


def test_readme_has_python_blocks():
    assert python_blocks()


@pytest.mark.parametrize("index", range(len(python_blocks())))
def test_imports_resolve(index):
    for node in ast.walk(python_blocks()[index]):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("repro"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module}.{alias.name}"


@pytest.mark.parametrize("index", range(len(python_blocks())))
def test_constructor_keywords_exist(index):
    for node in ast.walk(python_blocks()[index]):
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Name):
            continue
        constructor = CONSTRUCTORS.get(node.func.id)
        if constructor is None:
            continue
        parameters = inspect.signature(constructor).parameters
        for keyword in node.keywords:
            assert keyword.arg in parameters, f"{node.func.id}({keyword.arg}=)"
