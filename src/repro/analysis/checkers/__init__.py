"""The concrete contract checkers and the rule registry.

Each submodule contributes one :class:`~repro.analysis.core.Rule`; the
ordered tuple below is what the lint runner executes.
"""

from repro.analysis.checkers.byte_identity import BYTE_IDENTITY_RULE
from repro.analysis.checkers.determinism import DETERMINISM_RULE
from repro.analysis.core import Rule

ALL_RULES: "tuple[Rule, ...]" = (BYTE_IDENTITY_RULE, DETERMINISM_RULE)

__all__ = ["ALL_RULES", "BYTE_IDENTITY_RULE", "DETERMINISM_RULE"]
