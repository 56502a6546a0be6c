"""The lint driver: walk paths, run every rule, render the report.

Importable surface (used by the ``lint`` CLI subcommand and the pytest
self-check) plus the ``python -m repro.analysis`` argument parsing.

Exit-code contract (shared by ``python -m repro.analysis`` and the
``lint`` CLI subcommand)::

    0  clean -- no findings after --select/--ignore filtering
    1  findings -- contract violations and/or bench-schema errors
    2  parse-or-config error -- a file failed to parse (RPL999 survived
       filtering) or the invocation itself is invalid (unknown rule id,
       bad flag value)
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import FrozenSet, List, Optional, Sequence, Tuple, Union

from repro.analysis.bench_schema import validate_bench_directory
from repro.analysis.checkers import ALL_RULES
from repro.analysis.core import (
    PARSE_RULE_ID,
    PRAGMA_RULE_ID,
    Rule,
    Violation,
    analyze_file,
)

__all__ = [
    "all_rules",
    "iter_python_files",
    "lint_paths",
    "resolve_selection",
    "main",
]


def all_rules() -> Tuple[Rule, ...]:
    """Every registered contract rule, in reporting order."""
    return ALL_RULES


def known_rule_ids() -> FrozenSet[str]:
    """Every id ``--select``/``--ignore`` accepts (rules + framework ids)."""
    return frozenset(
        {rule.rule_id for rule in ALL_RULES} | {PRAGMA_RULE_ID, PARSE_RULE_ID}
    )


def iter_python_files(paths: Sequence[Union[str, Path]]) -> List[Path]:
    """Expand files/directories into a sorted, de-duplicated ``.py`` list."""
    seen = set()
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            candidates = [path]
        else:
            candidates = []
        for candidate in candidates:
            if candidate not in seen:
                seen.add(candidate)
                files.append(candidate)
    return files


def lint_paths(
    paths: Sequence[Union[str, Path]], *, rules: Optional[Sequence[Rule]] = None
) -> List[Violation]:
    """Analyze every Python file under ``paths``, one module at a time."""
    active = tuple(rules) if rules is not None else ALL_RULES
    return [
        violation
        for path in iter_python_files(paths)
        for violation in analyze_file(path, active)
    ]


def resolve_selection(
    select: Optional[Sequence[str]], ignore: Optional[Sequence[str]]
) -> Tuple[Tuple[Rule, ...], FrozenSet[str]]:
    """Turn ``--select``/``--ignore`` values into (active rules, kept ids).

    Values are comma-separable and repeatable.  Raises :class:`ValueError`
    on an id that is neither a registered rule nor a framework id
    (RPL000 pragma hygiene, RPL999 parse failure).
    """
    known = known_rule_ids()

    def expand(values: Optional[Sequence[str]], flag: str) -> FrozenSet[str]:
        ids = set()
        for value in values or []:
            for piece in value.split(","):
                piece = piece.strip().upper()
                if not piece:
                    continue
                if piece not in known:
                    choices = ", ".join(sorted(known))
                    raise ValueError(
                        f"unknown rule id '{piece}' for {flag} (choose from {choices})"
                    )
                ids.add(piece)
        return frozenset(ids)

    selected = expand(select, "--select") or known
    kept = selected - expand(ignore, "--ignore")
    active = tuple(rule for rule in ALL_RULES if rule.rule_id in kept)
    return active, kept


def _render_rules() -> str:
    lines = [f"{PRAGMA_RULE_ID}  pragma-hygiene: suppressions must carry reason=..."]
    for rule in ALL_RULES:
        lines.append(f"{rule.rule_id}  {rule.name}: {rule.invariant}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.analysis`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "reprolint: mechanically enforce the byte-identity and "
            "determinism contracts (exit 0 clean, 1 findings, "
            "2 parse-or-config error)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        action="append",
        metavar="RPL00x[,RPL00y]",
        help="only run/report these rule ids (repeatable, comma-separable)",
    )
    parser.add_argument(
        "--ignore",
        action="append",
        metavar="RPL00x[,RPL00y]",
        help="drop these rule ids from the run/report (repeatable)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every rule id and the invariant it guards, then exit",
    )
    parser.add_argument(
        "--bench-schema",
        nargs="+",
        metavar="PATH",
        help=(
            "additionally validate BENCH_*.json benchmark records under "
            "these files/directories against the record schema"
        ),
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the exit status (see module docstring)."""
    args = build_parser().parse_args(list(argv) if argv is not None else None)
    if args.list_rules:
        print(_render_rules())
        return 0
    try:
        active, kept = resolve_selection(args.select, args.ignore)
    except ValueError as error:
        print(f"reprolint: {error}", file=sys.stderr)
        return 2
    violations = [
        violation
        for violation in lint_paths(args.paths, rules=active)
        if violation.rule_id in kept
    ]
    failed = bool(violations)
    if args.format == "json":
        print(
            json.dumps(
                [
                    {
                        "rule": violation.rule_id,
                        "path": violation.path,
                        "line": violation.line,
                        "message": violation.message,
                    }
                    for violation in violations
                ],
                indent=2,
            )
        )
    else:
        for violation in violations:
            print(violation.render())
        count = len(violations)
        if count:
            print(f"reprolint: {count} contract violation{'s' if count != 1 else ''}")
        else:
            print("reprolint: clean")
    if args.bench_schema:
        errors = validate_bench_directory(args.bench_schema)
        for error in errors:
            print(f"bench-schema: {error}", file=sys.stderr)
        if errors:
            failed = True
        elif args.format == "text":
            print("bench-schema: clean")
    if any(violation.rule_id == PARSE_RULE_ID for violation in violations):
        return 2
    return 1 if failed else 0
