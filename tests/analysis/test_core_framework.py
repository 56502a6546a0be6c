"""Unit coverage of the framework itself: pragmas, scoping, rendering."""

import textwrap

from repro.analysis import analyze_source, parse_pragmas
from repro.analysis.checkers import ALL_RULES
from repro.analysis.core import PARSE_RULE_ID, PRAGMA_RULE_ID, infer_module
from pathlib import Path


def _analyze(source, module=None):
    return analyze_source(textwrap.dedent(source), ALL_RULES, module=module)


class TestPragmas:
    def test_trailing_pragma_suppresses_its_line(self):
        violations = _analyze(
            """
            def f(weights):
                return sum(weights.values())  # reprolint: disable=RPL003 reason=justified for the test
            """
        )
        assert violations == []

    def test_standalone_pragma_suppresses_the_next_line(self):
        violations = _analyze(
            """
            def f(weights):
                # reprolint: disable=RPL003 reason=justified for the test
                return sum(weights.values())
            """
        )
        assert violations == []

    def test_pragma_only_suppresses_named_rules(self):
        violations = _analyze(
            """
            import random

            def f(weights):
                return sum(weights.values()), random.random()  # reprolint: disable=RPL003 reason=half a fix
            """
        )
        assert [v.rule_id for v in violations] == ["RPL004"]

    def test_bare_pragma_is_rpl000_and_does_not_suppress(self):
        violations = _analyze(
            """
            def f(weights):
                return sum(weights.values())  # reprolint: disable=RPL003
            """
        )
        assert sorted(v.rule_id for v in violations) == [PRAGMA_RULE_ID, "RPL003"]

    def test_empty_reason_is_rpl000(self):
        violations = _analyze(
            """
            x = 1  # reprolint: disable=RPL003 reason=
            """
        )
        assert [v.rule_id for v in violations] == [PRAGMA_RULE_ID]

    def test_rpl000_itself_cannot_be_suppressed(self):
        violations = _analyze(
            """
            x = 1  # reprolint: disable=RPL000
            """
        )
        assert [v.rule_id for v in violations] == [PRAGMA_RULE_ID]

    def test_parse_pragmas_reads_codes_and_reason(self):
        pragmas = parse_pragmas(
            "value = 1  # reprolint: disable=RPL003,RPL004 reason=because tested\n"
        )
        assert len(pragmas) == 1
        assert pragmas[0].codes == frozenset({"RPL003", "RPL004"})
        assert pragmas[0].reason == "because tested"
        assert not pragmas[0].standalone


class TestScoping:
    def test_byte_identity_guards_only_index_and_selection(self):
        source = """
        def f(weights):
            return sum(weights.values())
        """
        assert _analyze(source, module="repro.geometry.index")
        assert _analyze(source, module="repro.overlay.selection.empty_rectangle")
        assert _analyze(source, module="repro.metrics.reporting") == []

    def test_determinism_guards_every_module(self):
        source = """
        import random

        def f():
            return random.random()
        """
        assert _analyze(source, module="repro.metrics.reporting")
        assert _analyze(source, module=None)

    def test_infer_module(self):
        assert (
            infer_module(Path("src/repro/geometry/index.py"))
            == "repro.geometry.index"
        )
        assert infer_module(Path("src/repro/__init__.py")) == "repro"
        assert infer_module(Path("tests/analysis/fixtures/bad/x.py")) is None


class TestReporting:
    def test_syntax_error_is_reported_not_raised(self):
        violations = analyze_source("def broken(:\n", ALL_RULES, path="x.py")
        assert [v.rule_id for v in violations] == [PARSE_RULE_ID]

    def test_render_format(self):
        violations = _analyze(
            """
            import time

            def f():
                return time.time()
            """
        )
        assert len(violations) == 1
        rendered = violations[0].render()
        assert rendered.startswith("<string>:5: RPL004 ")

    def test_rule_registry_is_complete_and_ordered(self):
        assert [rule.rule_id for rule in ALL_RULES] == ["RPL003", "RPL004"]
        for rule in ALL_RULES:
            assert rule.invariant and rule.name
