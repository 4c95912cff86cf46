"""Rule registry for :mod:`repro.lint`.

:func:`all_rules` returns fresh instances (rules may hold per-run
state); :data:`RULE_CODES` is the stable set of valid codes for
``--select`` / ``--ignore`` validation.
"""

from __future__ import annotations

from repro.lint.rules.base import FileContext, FileRule, ProjectRule, Rule
from repro.lint.rules.defaults import MutableDefaultRule
from repro.lint.rules.determinism import DeterminismRule
from repro.lint.rules.digest_flow import DigestFlowRule
from repro.lint.rules.numeric import NumericSafetyRule
from repro.lint.rules.purity import PurityRule
from repro.lint.rules.rng_streams import RngStreamRule
from repro.lint.rules.silent_except import SilentExceptRule

__all__ = [
    "RULE_CODES",
    "FileContext",
    "FileRule",
    "ProjectRule",
    "Rule",
    "all_rules",
    "DeterminismRule",
    "DigestFlowRule",
    "MutableDefaultRule",
    "NumericSafetyRule",
    "PurityRule",
    "RngStreamRule",
    "SilentExceptRule",
]

_RULE_CLASSES: tuple[type[Rule], ...] = (
    DeterminismRule,
    SilentExceptRule,
    PurityRule,
    MutableDefaultRule,
    DigestFlowRule,
    RngStreamRule,
    NumericSafetyRule,
)

#: All registered rule codes, in catalogue order.
RULE_CODES: tuple[str, ...] = tuple(cls.code for cls in _RULE_CLASSES)


def all_rules() -> list[Rule]:
    """Fresh instances of every registered rule."""
    return [cls() for cls in _RULE_CLASSES]
