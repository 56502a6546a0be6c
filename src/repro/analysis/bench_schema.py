"""Schema validation for the machine-readable benchmark records.

The weekly slow benchmarks persist their headline numbers as
``benchmarks/results/BENCH_*.json`` (ROADMAP, PR 5) so the perf trajectory
is comparable across PRs.  A malformed record -- a renamed key, a string
where a number belongs -- would silently break that comparability, so CI
validates every record against the small JSON schema below and fails fast.

The validator interprets the schema subset it needs (``type``,
``required``, ``properties``, ``minimum`` / ``exclusiveMinimum``,
``minLength``) directly, so it runs in environments without the
``jsonschema`` package; the schema dict itself is standard JSON Schema and
works unchanged under a full validator.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Sequence, Union

__all__ = [
    "BENCH_RECORD_SCHEMA",
    "validate_bench_record",
    "validate_bench_directory",
]

#: The contract every BENCH_*.json record must satisfy.  Extra keys are
#: welcome (records carry per-scenario detail); the three required ones are
#: what the cross-PR trajectory tooling keys on.  The other keys are *typed
#: optional*: when a record carries them they must be well-formed, but a
#: record may omit them.  ``speedup`` / ``speedup_floor`` belong to the
#: benchmarks that time a baseline arm beside the measured one, and
#: ``wall_budget_seconds`` to the ones held to an absolute budget; all three
#: are positive numbers.  ``peak_rss_mb`` (memory headroom, part of the
#: road-to-100k trajectory) is a positive number when present;
#: ``p99_latency_s`` (tail dissemination latency under the real-network
#: model) a non-negative number; ``bytes_sent`` (the run's wire volume
#: under the byte estimator) a non-negative integer.
BENCH_RECORD_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": ["scenario", "peer_count", "wall_seconds"],
    "properties": {
        "scenario": {"type": "string", "minLength": 1},
        "peer_count": {"type": "integer", "minimum": 1},
        "wall_seconds": {"type": "number", "exclusiveMinimum": 0},
        "speedup": {"type": "number", "exclusiveMinimum": 0},
        "speedup_floor": {"type": "number", "exclusiveMinimum": 0},
        "wall_budget_seconds": {"type": "number", "exclusiveMinimum": 0},
        "peak_rss_mb": {"type": "number", "exclusiveMinimum": 0},
        "p99_latency_s": {"type": "number", "minimum": 0},
        "bytes_sent": {"type": "integer", "minimum": 0},
    },
}

_TYPES = {
    "object": dict,
    "string": str,
    "number": (int, float),
    "integer": int,
}


def _check_value(value: Any, schema: Dict[str, Any], where: str) -> List[str]:
    errors: List[str] = []
    expected = schema.get("type")
    if expected is not None:
        python_type = _TYPES[expected]
        if isinstance(value, bool) and expected in {"number", "integer"}:
            errors.append(f"{where}: expected a {expected}, got a bool")
            return errors
        if not isinstance(value, python_type):
            errors.append(
                f"{where}: expected a {expected}, got {type(value).__name__}"
            )
            return errors
    if "minLength" in schema and len(value) < schema["minLength"]:
        errors.append(f"{where}: shorter than minLength {schema['minLength']}")
    if "minimum" in schema and value < schema["minimum"]:
        errors.append(f"{where}: {value} is below minimum {schema['minimum']}")
    if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
        errors.append(
            f"{where}: {value} must be strictly greater than "
            f"{schema['exclusiveMinimum']}"
        )
    return errors


def validate_bench_record(record: Any, *, label: str = "record") -> List[str]:
    """Validate one decoded record; returns human-readable error strings.

    ``label`` prefixes every message -- the directory walker passes
    ``record[i]`` for the i-th entry of a list-shaped file, so an error
    always names exactly which record (and, one level up, which file) it
    came from.
    """
    errors = _check_value(record, BENCH_RECORD_SCHEMA, label)
    if errors:
        return errors
    for key in BENCH_RECORD_SCHEMA["required"]:
        if key not in record:
            errors.append(f"{label}: required key '{key}' is missing")
    for key, schema in BENCH_RECORD_SCHEMA["properties"].items():
        if key in record:
            errors.extend(_check_value(record[key], schema, f"{label}: {key}"))
    return errors


def validate_bench_directory(paths: Sequence[Union[str, Path]]) -> List[str]:
    """Validate every ``BENCH_*.json`` under the given files/directories.

    A file may hold one record object or a list of them.  Returns
    ``path: record[...]: message`` strings, so a failing key is traceable
    to its file and record index; an empty list means every record is
    well-formed.  A directory with no records is *not* an error (a fresh
    clone has none until the weekly job runs).
    """
    errors: List[str] = []
    records: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            records.extend(sorted(path.glob("BENCH_*.json")))
        else:
            records.append(path)
    for record_path in records:
        try:
            decoded = json.loads(record_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as error:
            errors.append(f"{record_path}: unreadable record ({error})")
            continue
        if isinstance(decoded, list):
            for index, entry in enumerate(decoded):
                errors.extend(
                    f"{record_path}: {message}"
                    for message in validate_bench_record(
                        entry, label=f"record[{index}]"
                    )
                )
        else:
            errors.extend(
                f"{record_path}: {message}"
                for message in validate_bench_record(decoded)
            )
    return errors
