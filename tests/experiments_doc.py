"""EXPERIMENTS.md's three section tables, read as data.

Each row's "Measured" cell holds one code span, ``key name=value ...``, at
the precision its test prints; prose around the span carries no digits. The
``tests/test_paper_*.py`` modules compute each figure once (a fixture where
it is not a single call on constants), recompute its line and compare
it with the document, so a change that moves a figure edits that row in the
same commit: the failure message is the new line.
"""

import re
from pathlib import Path

DOC = Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"
_SPAN = re.compile(r"`([^`]+)`")


def measured_lines(section):
    """``{key: line}`` for every row of the table under ``## <section>``."""
    body = DOC.read_text(encoding="utf-8").split(f"\n## {section}", 1)[1]
    table = body.split("\n## ", 1)[0].splitlines()
    rows = [row for row in table if row.startswith("|")]
    lines = {}
    for row in rows[2:]:  # past the header and its |---| rule
        measured = row.split("|")[3]
        spans = _SPAN.findall(measured)
        assert len(spans) == 1 and not re.search(r"\d", _SPAN.sub("", measured)), (
            f"{section} row {row[:50]!r}: the Measured cell needs exactly one "
            "code span, and no numbers outside it"
        )
        key = spans[0].split()[0]
        assert key not in lines, f"{section}: two rows share the key {key!r}"
        lines[key] = spans[0]
    return lines


def joined(values, fmt="{}"):
    """A series as the rows print it: ``fmt`` per value, ``/`` between."""
    return "/".join(fmt.format(v) for v in values)


def check(section, line):
    """Fail unless ``line`` is the Measured span of its key's row."""
    key = line.split()[0]
    documented = measured_lines(section).get(key)
    assert documented == line, (
        f"EXPERIMENTS.md ({section}) row {key!r} reads\n    `{documented}`\n"
        f"but the code now gives\n    `{line}`\nEdit the row to the new line."
    )
