"""``python -m benchmarks.ledger run|compare`` (with ``PYTHONPATH=src``).

``run`` measures all five workloads, each in its own child process one after
another (so ``peak_rss_mb`` is the workload's own): an end-to-end child with
``--repeats`` fresh-state repeats and no wrapper installed, then a traced
child.  It prints every metric by name and writes nothing unless ``--out``
is given.  ``compare`` judges two ``--out`` files against the bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence

import numpy

from . import spec
from .compare import compare

_HERE = Path(__file__).resolve().parent
_ROOT = _HERE.parents[1]


def provenance() -> Dict[str, Any]:
    """Where the numbers came from: commit, CPU, interpreter, numpy."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=_ROOT, capture_output=True, text=True,
            check=True, timeout=30,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_sha": sha,
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _child(workload: str, seed: int, extra: Sequence[str]) -> Dict[str, Any]:
    """Run ``run.py`` for one workload; echo its report, return its record."""
    command = [
        sys.executable, str(_HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--record", *extra,
    ]
    done = subprocess.run(command, cwd=_ROOT, capture_output=True, text=True, timeout=3600)
    record = None
    for line in done.stdout.splitlines():
        if line.startswith("LEDGER "):
            record = json.loads(line[len("LEDGER "):])
        elif not line.startswith("{"):
            print(line)
    if done.returncode != 0 or record is None:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload}: the measuring child failed (exit {done.returncode})")
    return record


def run(seed: int, repeats: int, out: str) -> int:
    origin = provenance()
    for key, value in origin.items():
        print(f"{key}: {value}")
    workloads: Dict[str, Any] = {}
    for name in spec.WORKLOADS:
        record = _child(name, seed, ["--repeats", str(repeats), "--trace", "0"])
        traced = _child(name, seed, ["--trace", "1"])
        record["traced"] = {
            key: traced[key]
            for key in ("per_layer", "layer_self_s", "attempted", "failed", "failures")
        }
        workloads[name] = record
    failed = sum(r["failed"] + r["traced"]["failed"] for r in workloads.values())
    print(f"failed operations over all workloads and passes: {failed}")
    if out:
        ledger = {"provenance": origin, "seed": seed, "repeats": repeats, "workloads": workloads}
        Path(out).write_text(json.dumps(ledger, indent=1) + "\n")
    return 1 if failed else 0


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    run_parser = commands.add_parser("run", help="measure all five workloads")
    run_parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    run_parser.add_argument("--repeats", type=int, default=3)
    run_parser.add_argument("--out", default="", help="write the ledger JSON here")
    compare_parser = commands.add_parser("compare", help="judge ledger B against ledger A")
    compare_parser.add_argument("a")
    compare_parser.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.seed, args.repeats, args.out)
    lines: List[str] = []
    status = compare(
        json.loads(Path(args.a).read_text()), json.loads(Path(args.b).read_text()), lines
    )
    print("\n".join(lines))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
