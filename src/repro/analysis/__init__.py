"""reprolint: the two contracts that live in how a single module is written.

Most of the repo's invariants hold by construction and are tested as such:
the overlay's neighbour map and peer map have a pinned set of writers
(``tests/test_write_census.py``), the incremental paths never walk the
peer population (``tests/test_population_check.py``, a runtime check), and
path-independent selection classes keep no call history
(``tests/test_selection_purity.py``).  What is left here are the two
contracts a reviewed, per-line exception is the right tool for:

========  ==============================================================
RPL003    byte-identity: no unordered float accumulation in guarded modules
RPL004    determinism: no global RNG, unseeded RNG, or wall-clock reads
RPL000    a suppression pragma without a justification is itself an error
========  ==============================================================

Run it as ``python -m repro.analysis [paths...]`` or through the ``lint``
CLI subcommand (``python -m repro.cli lint``, same flags), or from pytest
via the self-check in ``tests/analysis/test_self_check.py``.  Exit codes:
0 clean, 1 findings (contract violations and/or bench-schema errors),
2 parse-or-config error (an analyzed file does not parse, or an unknown
rule id was passed to ``--select``/``--ignore``).  ``--format`` renders
``text`` or ``json``; ``--select``/``--ignore`` filter rules by id.  A rule
is suppressed per line with an *explained* inline pragma::

    acc = sum(block)  # reprolint: disable=RPL003 reason=block is a sorted list

Bare suppressions (no ``reason=``) are reported as RPL000 and are not
themselves suppressible.
"""

from repro.analysis.bench_schema import (
    BENCH_RECORD_SCHEMA,
    validate_bench_directory,
    validate_bench_record,
)
from repro.analysis.core import (
    ModuleContext,
    Pragma,
    Rule,
    Violation,
    analyze_file,
    analyze_source,
    parse_pragmas,
)
from repro.analysis.runner import all_rules, lint_paths, main, resolve_selection

__all__ = [
    "BENCH_RECORD_SCHEMA",
    "ModuleContext",
    "Pragma",
    "Rule",
    "Violation",
    "all_rules",
    "analyze_file",
    "analyze_source",
    "lint_paths",
    "main",
    "parse_pragmas",
    "resolve_selection",
    "validate_bench_directory",
    "validate_bench_record",
]
