"""The reprolint CLI surface: selection flags, formats, exit codes.

Exit-code contract under test (shared by ``python -m repro.analysis`` and
the ``lint`` subcommand of ``python -m repro``)::

    0  clean after filtering
    1  findings (contract violations, bench-schema errors)
    2  parse-or-config error (unknown rule id, or RPL999 survived filtering)
"""

import json
import time
from pathlib import Path

import pytest

from repro.analysis import main
from repro.cli import main as repro_main

SRC_REPRO = Path(__file__).resolve().parents[2] / "src" / "repro"
WALL_CLOCK = "import time\n\n\ndef stamp():\n    return time.time()\n"


def _violating(tmp_path: Path) -> Path:
    module = tmp_path / "stamped.py"
    module.write_text(WALL_CLOCK, encoding="utf-8")
    return module


def test_findings_exit_1_and_render_with_location(tmp_path, capsys):
    module = _violating(tmp_path)
    assert main([str(module)]) == 1
    out = capsys.readouterr().out
    assert f"{module}:5: RPL004" in out
    assert "1 contract violation" in out


def test_select_narrows_the_run(tmp_path, capsys):
    module = _violating(tmp_path)
    assert main([str(module), "--select", "RPL003,RPL000"]) == 0
    assert "reprolint: clean" in capsys.readouterr().out
    assert main([str(module), "--select", "RPL004"]) == 1


def test_ignore_drops_rule_ids(tmp_path):
    module = _violating(tmp_path)
    assert main([str(module), "--ignore", "RPL004"]) == 0
    # Repeatable and comma-separable, and select composes with ignore.
    assert main([str(module), "--select", "RPL004", "--ignore", "RPL004"]) == 0


def test_unknown_rule_id_is_a_config_error(tmp_path, capsys):
    module = _violating(tmp_path)
    assert main([str(module), "--select", "RPL042"]) == 2
    assert "unknown rule id 'RPL042'" in capsys.readouterr().err
    assert main([str(module), "--ignore", "nonsense"]) == 2


def test_unparseable_file_exits_2(tmp_path, capsys):
    module = tmp_path / "broken.py"
    module.write_text("def broken(:\n", encoding="utf-8")
    assert main([str(module)]) == 2
    assert "RPL999" in capsys.readouterr().out
    # ...unless the parse rule itself is filtered out.
    assert main([str(module), "--ignore", "RPL999"]) == 0


def test_whole_tree_lints_inside_the_ci_budget(capsys):
    # The lint gate runs on every push: a whole-tree pass over src/repro
    # must stay well under ten seconds (it takes well under one).
    start = time.perf_counter()
    assert main([str(SRC_REPRO)]) == 0
    assert time.perf_counter() - start < 10.0
    assert "reprolint: clean" in capsys.readouterr().out


def test_cli_lint_subcommand_forwards_flags(tmp_path, capsys):
    module = _violating(tmp_path)
    assert repro_main(["lint", str(module), "--format", "json"]) == 1
    decoded = json.loads(capsys.readouterr().out)
    assert decoded[0]["rule"] == "RPL004"
    assert repro_main(["lint", str(module), "--ignore", "RPL004"]) == 0
    # --scale before the subcommand is tolerated (and irrelevant to lint).
    assert repro_main(["--scale", "smoke", "lint", str(module)]) == 1
    capsys.readouterr()


def test_list_rules_documents_the_new_contracts(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("RPL000", "RPL003", "RPL004"):
        assert rule_id in out


@pytest.mark.parametrize("entry", [main, lambda argv: repro_main(["lint", *argv])],
                         ids=["module", "lint_subcommand"])
@pytest.mark.parametrize("flags", [["--format", "sarif"], ["--max-seconds", "10"]],
                         ids=["format_sarif", "max_seconds"])
def test_removed_flag_is_a_usage_error(tmp_path, capsys, entry, flags):
    module = _violating(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        entry([str(module), *flags])
    assert exit_info.value.code == 2
    assert flags[0] in capsys.readouterr().err
