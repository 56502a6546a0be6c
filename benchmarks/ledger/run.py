"""The ``BENCHMARK.json`` command: one workload, one process.

``python3 benchmarks/ledger/run.py --workload W --seed S --seconds T --trace 0|1``
run from the root of a checkout.  Prints every metric by name and, as the
last line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exits non-zero (ImportError) where ``src/repro`` is absent.
"""

import sys
import time
from pathlib import Path

if __name__ == "__main__":
    _root = Path(__file__).resolve().parents[2]
    sys.path[:0] = [str(_root), str(_root / "src")]
    _started = time.perf_counter()
    from benchmarks.ledger import harness  # imports repro and numpy

    sys.exit(harness.main(sys.argv[1:], import_s=time.perf_counter() - _started))
