"""The fixture corpus: every known-bad snippet flags, the clean corpus doesn't.

Each ``bad/`` fixture annotates its violations with trailing ``# expect:
RPL00x`` markers; the corpus test asserts the checker output matches those
(rule id *and* line) exactly -- no misses, no extras.  The ``clean/``
corpus holds near-miss shapes that must produce nothing.
"""

import re
from collections import Counter
from pathlib import Path

import pytest

from repro.analysis import lint_paths, main
from repro.analysis.checkers import ALL_RULES
from repro.analysis.core import PRAGMA_RULE_ID

FIXTURES = Path(__file__).resolve().parent / "fixtures"
BAD = sorted((FIXTURES / "bad").glob("*.py"))
CLEAN = sorted((FIXTURES / "clean").glob("*.py"))

_EXPECT = re.compile(r"#\s*expect:\s*(?P<codes>RPL\d{3}(?:\s*,\s*RPL\d{3})*)\s*$")


def expected_markers(path: Path):
    """``{(line, rule_id), ...}`` parsed from the fixture's expect markers."""
    expected = set()
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        match = _EXPECT.search(line)
        if match:
            for code in match.group("codes").split(","):
                expected.add((lineno, code.strip()))
    return expected


def test_corpus_is_present():
    assert len(BAD) >= 5 and len(CLEAN) >= 1
    # At least two known-violation snippets per rule id (ISSUE acceptance).
    rule_counts = Counter()
    for path in BAD:
        for _, rule_id in expected_markers(path):
            rule_counts[rule_id] += 1
    for rule in ALL_RULES:
        assert rule_counts[rule.rule_id] >= 2, rule.rule_id
    assert rule_counts[PRAGMA_RULE_ID] >= 1


@pytest.mark.parametrize("path", BAD, ids=lambda p: p.stem)
def test_bad_fixture_flags_exactly_its_markers(path):
    expected = expected_markers(path)
    assert expected, f"{path} carries no expect markers"
    actual = {(v.line, v.rule_id) for v in lint_paths([path])}
    assert actual == expected


@pytest.mark.parametrize("path", CLEAN, ids=lambda p: p.stem)
def test_clean_fixture_is_silent(path):
    violations = lint_paths([path])
    assert violations == [], "\n".join(v.render() for v in violations)


def test_cli_exits_nonzero_on_the_bad_corpus(capsys):
    assert main([str(FIXTURES / "bad")]) == 1
    assert "contract violation" in capsys.readouterr().out


def test_cli_exits_zero_on_the_clean_corpus(capsys):
    assert main([str(FIXTURES / "clean")]) == 0
    assert "clean" in capsys.readouterr().out


def test_cli_json_format_is_machine_readable(capsys):
    import json

    assert main(["--format", "json", str(FIXTURES / "bad")]) == 1
    decoded = json.loads(capsys.readouterr().out)
    assert all({"rule", "path", "line", "message"} <= set(entry) for entry in decoded)
    assert any(entry["rule"] == "RPL003" for entry in decoded)


def test_repro_cli_lint_subcommand(capsys):
    from repro.cli import main as cli_main

    assert cli_main(["lint", str(FIXTURES / "bad")]) == 1
    assert cli_main(["lint", str(FIXTURES / "clean")]) == 0
    capsys.readouterr()
