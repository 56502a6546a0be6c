"""Core of the contract checker: rules, violations, pragmas, the driver.

A *rule* pairs a machine-readable id (``RPL003`` ...) with a factory that
builds an :class:`ast.NodeVisitor` over one module and a *scope* predicate
deciding which modules the rule guards (the byte-identity rule, for
example, only guards :mod:`repro.geometry.index` and the selection family).
Checkers report through :meth:`ModuleContext.report`; the driver then folds
in the per-line suppression pragmas and returns the surviving violations.

Suppression pragma grammar (one line of scope, trailing or on the line
immediately above)::

    # reprolint: disable=RPL003 reason=entry[0] is a tuple; order is fixed
    # reprolint: disable=RPL003,RPL004 reason=fixed-order tuple, seeded rng

A pragma without a non-empty ``reason=`` is itself reported as
:data:`PRAGMA_RULE_ID` (RPL000) and cannot be suppressed.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

__all__ = [
    "PRAGMA_RULE_ID",
    "PARSE_RULE_ID",
    "Violation",
    "Pragma",
    "Rule",
    "ModuleContext",
    "parse_pragmas",
    "infer_module",
    "analyze_source",
    "analyze_file",
]

#: Rule id reported for malformed (reason-less) suppression pragmas.
PRAGMA_RULE_ID = "RPL000"
#: Rule id reported when a file cannot be parsed at all.
PARSE_RULE_ID = "RPL999"

_PRAGMA_PATTERN = re.compile(
    r"#\s*reprolint:\s*disable=(?P<codes>[A-Za-z0-9_,\s]*?)"
    r"(?:\s+reason=(?P<reason>[^#]*))?\s*(?:#|$)"
)


@dataclass(frozen=True)
class Violation:
    """One contract violation at one source line."""

    rule_id: str
    message: str
    path: str
    line: int

    def render(self) -> str:
        """``path:line: RULE message`` -- the one-line report format."""
        return f"{self.path}:{self.line}: {self.rule_id} {self.message}"


@dataclass(frozen=True)
class Pragma:
    """One parsed ``# reprolint: disable=...`` suppression comment."""

    line: int
    codes: frozenset
    reason: str
    #: ``True`` when the comment is alone on its line, in which case it
    #: suppresses the *next* line as well as its own.
    standalone: bool


@dataclass(frozen=True)
class Rule:
    """One registered contract rule."""

    rule_id: str
    name: str
    invariant: str
    factory: Callable[["ModuleContext"], ast.NodeVisitor]
    #: Predicate over the dotted module name (``None`` for files outside the
    #: ``repro`` package, which every rule guards so the fixture corpus and
    #: stray scripts get full checking).
    scope: Callable[[Optional[str]], bool] = lambda module: True

    def applies_to(self, module: Optional[str]) -> bool:
        """Whether this rule guards the given module (``None`` = always)."""
        return module is None or self.scope(module)


@dataclass
class ModuleContext:
    """Everything a checker may need about the module under analysis."""

    path: str
    module: Optional[str]
    source: str
    tree: ast.Module
    violations: List[Violation] = field(default_factory=list)

    def report(self, rule_id: str, line: int, message: str) -> None:
        """Record one violation (suppression is applied by the driver)."""
        self.violations.append(Violation(rule_id, message, self.path, line))


def parse_pragmas(source: str) -> List[Pragma]:
    """Extract every ``reprolint`` pragma comment with its line and scope."""
    pragmas: List[Pragma] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _PRAGMA_PATTERN.search(token.string)
            if match is None:
                continue
            codes = frozenset(
                code.strip().upper()
                for code in match.group("codes").split(",")
                if code.strip()
            )
            reason = (match.group("reason") or "").strip()
            prefix = token.line[: token.start[1]]
            pragmas.append(
                Pragma(
                    line=token.start[0],
                    codes=codes,
                    reason=reason,
                    standalone=not prefix.strip(),
                )
            )
    except tokenize.TokenizeError:
        # A file tokenize cannot handle will not parse either; the driver
        # reports the parse failure, so silently yield no pragmas here.
        return []
    return pragmas


def infer_module(path: Path) -> Optional[str]:
    """Dotted module name for files under a ``repro`` package root.

    ``src/repro/geometry/index.py`` maps to ``repro.geometry.index``;
    anything not under a ``repro`` directory (the fixture corpus, scratch
    scripts) maps to ``None``, which makes *every* rule apply.
    """
    parts = list(path.parts)
    if path.suffix == ".py":
        parts[-1] = path.stem
    try:
        anchor = len(parts) - 1 - parts[::-1].index("repro")
    except ValueError:
        return None
    dotted = parts[anchor:]
    if dotted and dotted[-1] == "__init__":
        dotted = dotted[:-1]
    return ".".join(dotted)


def _apply_pragmas(
    violations: Sequence[Violation], pragmas: Sequence[Pragma], path: str
) -> List[Violation]:
    """Drop suppressed violations; add RPL000 for reason-less pragmas."""
    suppressed: Dict[int, frozenset] = {}
    results: List[Violation] = []
    for pragma in pragmas:
        if not pragma.reason or not pragma.codes:
            results.append(
                Violation(
                    PRAGMA_RULE_ID,
                    "suppression pragma without a justification; write "
                    "'# reprolint: disable=RPL00x reason=...'",
                    path,
                    pragma.line,
                )
            )
            continue
        lines = [pragma.line, pragma.line + 1] if pragma.standalone else [pragma.line]
        for line in lines:
            suppressed[line] = suppressed.get(line, frozenset()) | pragma.codes
    for violation in violations:
        if violation.rule_id in suppressed.get(violation.line, frozenset()):
            continue
        results.append(violation)
    return results


def _parse_violation(path: str, error: SyntaxError) -> Violation:
    return Violation(
        PARSE_RULE_ID,
        f"file does not parse: {error.msg}",
        path,
        error.lineno or 1,
    )


def _run_rules(
    context: ModuleContext, rules: Sequence[Rule]
) -> List[Violation]:
    for rule in rules:
        if not rule.applies_to(context.module):
            continue
        rule.factory(context).visit(context.tree)
    violations = _apply_pragmas(
        context.violations, parse_pragmas(context.source), context.path
    )
    return sorted(violations, key=lambda v: (v.line, v.rule_id))


def analyze_source(
    source: str,
    rules: Sequence[Rule],
    *,
    path: str = "<string>",
    module: Optional[str] = None,
) -> List[Violation]:
    """Run every applicable rule over one module's source text."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        return [_parse_violation(path, error)]
    context = ModuleContext(path=path, module=module, source=source, tree=tree)
    return _run_rules(context, rules)


def analyze_file(path: Path, rules: Sequence[Rule]) -> List[Violation]:
    """Analyze one file on disk (module name inferred from its path)."""
    source = path.read_text(encoding="utf-8")
    return analyze_source(
        source, rules, path=str(path), module=infer_module(path)
    )
