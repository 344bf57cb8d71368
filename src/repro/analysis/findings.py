"""Structured lint findings.

A :class:`Finding` is one rule violation at one source location. The
``path`` is the *module path* (``repro/framework/sampler.py``), not a
filesystem path, so a report reads the same from any checkout.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str
    snippet: str = ""

    def format(self) -> str:
        """One-line human-readable rendering."""
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)
