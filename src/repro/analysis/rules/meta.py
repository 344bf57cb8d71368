"""Engine-emitted meta rules.

These two rule ids never run a check themselves; the engine emits
their findings while reading and pre-processing a file.
"""

from __future__ import annotations

from repro.analysis.rules import Rule, register


class ParseErrorRule(Rule):
    rule_id = "parse-error"
    title = "file must parse under the supported Python grammar"
    rationale = (
        "A file that does not parse cannot be checked at all, so a "
        "syntax error is itself a finding rather than a crash: the lint "
        "run stays total over the tree."
    )


class SuppressFormatRule(Rule):
    rule_id = "suppress-format"
    title = "suppression comments must name a known rule and give a reason"
    rationale = (
        "'# repro: allow[rule-id] reason' is a reviewed, greppable "
        "exemption. A suppression without a reason (or naming an unknown "
        "rule id) is indistinguishable from a typo and would silently "
        "disable enforcement."
    )


register(ParseErrorRule())
register(SuppressFormatRule())
