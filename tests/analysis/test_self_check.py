"""The pytest-collected self-check: ``src/repro`` must hold its contracts.

The tier-1 suite fails the moment any module under ``src/repro``
introduces unordered float accumulation into byte-identity code or drifts
off the seeding contract -- *before* the hypothesis equivalence suites
would catch the divergence behaviourally.
"""

from pathlib import Path

from repro.analysis import lint_paths, validate_bench_directory

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_REPRO = REPO_ROOT / "src" / "repro"
BENCH_RESULTS = REPO_ROOT / "benchmarks" / "results"


def test_src_repro_is_contract_clean():
    violations = lint_paths([SRC_REPRO])
    assert violations == [], "\n".join(v.render() for v in violations)


def test_src_repro_covers_every_module():
    # The walk must actually see the guarded modules (a path regression that
    # silently analyzed nothing would make the clean check vacuous).
    from repro.analysis.runner import iter_python_files

    files = {path.name for path in iter_python_files([SRC_REPRO])}
    assert {"network.py", "incremental.py", "index.py", "churn.py"} <= files
    assert len(files) > 30


def test_checked_in_bench_records_are_schema_valid():
    errors = validate_bench_directory([BENCH_RESULTS])
    assert errors == [], "\n".join(errors)
