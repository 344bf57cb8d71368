"""Reach census: which ``src/repro`` function lines only unit tests run.

Runs every caller below under a ``sitecustomize`` hook that records the
``(file, firstlineno)`` of each ``src/repro`` code object called (via
``sys.setprofile``, so ``bench/``'s per-workload subprocesses count too)
and dumps the set at exit; then runs the tier-1 suite the same way, and
sizes every function with an ``ast`` pass. A function's lines are its
span minus the functions nested in it. Code run only in forked worker
processes is invisible (they exit without ``atexit``).

    python tests/reach_census.py        # from the repo root, ~5 minutes

pytest does not collect this file (it is not ``test_*.py``).
"""

import ast
import glob
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
HOOK = '''import atexit, os, sys, threading
seen = set()
def hook(frame, event, arg):
    if event == "call":
        seen.add(frame.f_code)
def dump():
    sys.setprofile(None)
    keys = ["%s:%d\\n" % (c.co_filename, c.co_firstlineno) for c in seen.copy()]
    with open(os.path.join(os.environ["REACH_OUT"], "%d.txt" % os.getpid()), "w") as f:
        f.writelines(keys)
sys.setprofile(hook); threading.setprofile(hook); atexit.register(dump)
'''
PYTEST = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
CLI = [
    "footprint", "scaling", "access-mix --max-nodes 1500", "e2e",
    "poc --max-nodes 1500", "validate --max-nodes 1500", "cost", "dse",
    "sampler", "system --max-nodes 1500", "service",
    "serve --duration-s 0.2 --max-nodes 1500",
    "cluster --duration-s 2 --users 100000", "faults --max-nodes 1500", "lint",
]
PATHS = (
    [PYTEST + sorted(glob.glob(str(ROOT / "tests" / "test_paper_*.py")))]
    + [[sys.executable, f] for f in sorted(glob.glob(str(ROOT / "examples" / "*.py")))]
    + [[sys.executable, "-m", "repro", *c.split()] for c in CLI]
    + [[sys.executable, "bench/run.py", "--smoke"],
       [sys.executable, "bench/run.py", "--smoke", "--traced"]]
)


def reached(commands, hook_dir):
    """``{(file, firstlineno)}`` called by any of ``commands``."""
    with tempfile.TemporaryDirectory() as out:
        env = dict(os.environ, REACH_OUT=out,
                   PYTHONPATH=os.pathsep.join([hook_dir, str(ROOT / "src")]))
        for command in commands:
            subprocess.run(command, cwd=ROOT, env=env, check=True,
                           stdout=subprocess.DEVNULL)
        keys = set()
        for dump in Path(out).iterdir():
            for line in dump.read_text().splitlines():
                path, _, lineno = line.rpartition(":")
                keys.add((os.path.realpath(path), int(lineno)))
        return keys


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def span(node):
    """``(first line, line count)``, decorators included."""
    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
    return first, node.end_lineno - first + 1


def nested_functions(node):
    """The functions defined directly inside ``node``'s body."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, FUNCTIONS):
            yield child
        else:
            yield from nested_functions(child)


def function_lines():
    """``{(file, firstlineno): own lines}`` for every function in src/repro."""
    sizes = {}
    for path in SRC.rglob("*.py"):
        if "fixtures" in path.parts:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, FUNCTIONS):
                first, lines = span(node)
                inner = sum(span(child)[1] for child in nested_functions(node))
                sizes[(os.path.realpath(path), first)] = lines - inner
    return sizes


def main():
    with tempfile.TemporaryDirectory() as hook_dir:
        Path(hook_dir, "sitecustomize.py").write_text(HOOK)
        paths = reached(PATHS, hook_dir)
        tests = reached([PYTEST], hook_dir)
    sizes = function_lines()
    by_path = sum(n for key, n in sizes.items() if key in paths)
    test_only = {key: n for key, n in sizes.items() if key in tests - paths}
    nothing = sum(n for key, n in sizes.items() if key not in paths | tests)
    print(f"reached by a path: {by_path} lines")
    print(f"reached only by unit tests: {sum(test_only.values())} lines")
    print(f"reached by nothing: {nothing} lines")
    per_file = {}
    for (path, _), n in test_only.items():
        per_file[path] = per_file.get(path, 0) + n
    for path, n in sorted(per_file.items(), key=lambda item: -item[1])[:15]:
        print(f"  {n:5d}  {os.path.relpath(path, SRC)}")


if __name__ == "__main__":
    main()
