"""The benchmark-record schema gate: malformed perf records fail fast."""

import json
from pathlib import Path

from bench_schema import validate_bench_directory, validate_bench_record

RESULTS = Path(__file__).resolve().parent / "results"

GOOD_RECORD = {
    "scenario": "index_scaling_full_convergence",
    "peer_count": 2000,
    "wall_seconds": 12.646,
    "speedup": 6.73,
    "speedup_floor": 5.0,
    "python": "3.11.7",
}


def test_good_record_passes():
    assert validate_bench_record(GOOD_RECORD) == []


def test_extra_keys_are_allowed():
    record = dict(GOOD_RECORD, dimension=2, recorded_at="2026-08-08T00:00:00Z")
    assert validate_bench_record(record) == []


def test_missing_required_key_fails():
    record = dict(GOOD_RECORD)
    del record["wall_seconds"]
    errors = validate_bench_record(record)
    assert any("wall_seconds" in error for error in errors)


def test_speedup_and_budget_are_optional_but_typed():
    """A benchmark held to an absolute budget has no baseline arm to divide
    by: its record omits ``speedup`` / ``speedup_floor`` (omits -- a ``null``
    is malformed) and may carry ``wall_budget_seconds`` instead."""
    single_arm = {
        key: value for key, value in GOOD_RECORD.items() if not key.startswith("speedup")
    }
    assert validate_bench_record(single_arm) == []
    assert validate_bench_record(dict(single_arm, wall_budget_seconds=10.0)) == []
    assert validate_bench_record(dict(single_arm, speedup=None))
    assert validate_bench_record(dict(single_arm, speedup_floor=None))
    assert validate_bench_record(dict(single_arm, wall_budget_seconds=0))
    assert validate_bench_record(dict(single_arm, wall_budget_seconds="soon"))


def test_wrong_types_fail():
    assert validate_bench_record(dict(GOOD_RECORD, wall_seconds="fast"))
    assert validate_bench_record(dict(GOOD_RECORD, peer_count=2000.5))
    assert validate_bench_record(dict(GOOD_RECORD, scenario=""))
    assert validate_bench_record(dict(GOOD_RECORD, speedup=True))
    assert validate_bench_record(["not", "an", "object"])


def test_non_positive_measurements_fail():
    assert validate_bench_record(dict(GOOD_RECORD, wall_seconds=0))
    assert validate_bench_record(dict(GOOD_RECORD, peer_count=0))
    assert validate_bench_record(dict(GOOD_RECORD, speedup_floor=-1.0))


def test_peak_rss_is_optional_but_typed():
    """Records may omit peak_rss_mb, but a present value must be a positive
    number -- the memory trajectory is only comparable if it is."""
    assert validate_bench_record(GOOD_RECORD) == []  # omitted: fine
    assert validate_bench_record(dict(GOOD_RECORD, peak_rss_mb=512.3)) == []
    assert validate_bench_record(dict(GOOD_RECORD, peak_rss_mb=0))
    assert validate_bench_record(dict(GOOD_RECORD, peak_rss_mb="big"))
    assert validate_bench_record(dict(GOOD_RECORD, peak_rss_mb=True))


def test_network_latency_fields_are_optional_but_typed():
    """The real-network benchmark reports tail latency and wire volume;
    other scenarios omit both.  Present values must be well-formed."""
    assert validate_bench_record(GOOD_RECORD) == []  # omitted: fine
    assert (
        validate_bench_record(
            dict(GOOD_RECORD, p99_latency_s=1.38, bytes_sent=52_401_772)
        )
        == []
    )
    # Zero is legitimate for both: a lossless single-hop probe can measure
    # 0.0s, and a no-traffic arm sends no bytes.
    assert validate_bench_record(dict(GOOD_RECORD, p99_latency_s=0.0)) == []
    assert validate_bench_record(dict(GOOD_RECORD, bytes_sent=0)) == []
    assert validate_bench_record(dict(GOOD_RECORD, p99_latency_s=-0.1))
    assert validate_bench_record(dict(GOOD_RECORD, p99_latency_s="slow"))
    assert validate_bench_record(dict(GOOD_RECORD, bytes_sent=-1))
    assert validate_bench_record(dict(GOOD_RECORD, bytes_sent=1.5))
    assert validate_bench_record(dict(GOOD_RECORD, bytes_sent=True))


def test_directory_walk_reports_per_file(tmp_path):
    good = tmp_path / "BENCH_good.json"
    good.write_text(json.dumps(GOOD_RECORD))
    bad = tmp_path / "BENCH_bad.json"
    bad.write_text(json.dumps({"scenario": 42}))
    broken = tmp_path / "BENCH_broken.json"
    broken.write_text("{not json")
    ignored = tmp_path / "notes.json"
    ignored.write_text("{}")

    errors = validate_bench_directory([tmp_path])
    assert any("BENCH_bad.json" in error for error in errors)
    assert any("BENCH_broken.json" in error for error in errors)
    assert not any("BENCH_good.json" in error for error in errors)
    assert not any("notes.json" in error for error in errors)


def test_empty_directory_is_not_an_error(tmp_path):
    assert validate_bench_directory([tmp_path]) == []


def test_errors_carry_file_path_and_record_index(tmp_path):
    """A list-shaped BENCH file reports which record is bad, not just which
    file -- checked-in result files hold dozens of records."""
    series = tmp_path / "BENCH_series.json"
    series.write_text(
        json.dumps([GOOD_RECORD, dict(GOOD_RECORD, peer_count="many"), GOOD_RECORD])
    )
    errors = validate_bench_directory([tmp_path])
    assert len(errors) == 1
    assert "BENCH_series.json" in errors[0]
    assert "record[1]" in errors[0]
    assert "peer_count" in errors[0]


def test_checked_in_bench_records_are_schema_valid():
    errors = validate_bench_directory([RESULTS])
    assert errors == [], "\n".join(errors)
