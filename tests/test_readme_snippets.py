"""README.md's python snippets name only what the package has.

Every ``from repro... import ...`` in a README python block must
resolve, and every keyword a snippet passes to a sampler or session
constructor must be a parameter of that constructor, so a snippet
cannot outlive an argument the code no longer takes. Each block's case
id comes from its own text, so adding or removing a block renames no
other block's case.
"""

import ast
import hashlib
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


def block_case(block):
    """The block as a case named by its first ``repro`` import plus a
    short hash of its code."""
    module = next(
        (
            node.module
            for node in ast.walk(block)
            if isinstance(node, ast.ImportFrom) and node.module.startswith("repro")
        ),
        "no-repro-import",
    )
    digest = hashlib.sha256(ast.unparse(block).encode()).hexdigest()[:8]
    return pytest.param(block, id=f"{module}-{digest}")


BLOCKS = [block_case(block) for block in python_blocks()]


def test_readme_has_python_blocks():
    assert python_blocks()


@pytest.mark.parametrize("block", BLOCKS)
def test_imports_resolve(block):
    for node in ast.walk(block):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("repro"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module}.{alias.name}"


@pytest.mark.parametrize("block", BLOCKS)
def test_constructor_keywords_exist(block):
    for node in ast.walk(block):
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Name):
            continue
        constructor = CONSTRUCTORS.get(node.func.id)
        if constructor is None:
            continue
        parameters = inspect.signature(constructor).parameters
        for keyword in node.keywords:
            assert keyword.arg in parameters, f"{node.func.id}({keyword.arg}=)"
