"""Perf ledger v1: the repo's benchmark (see README.md in this directory).

Five named workloads driven through the public ``repro`` API, end-to-end
metrics measured with no wrapper installed, and per-layer metrics from a
separate traced pass whose wrappers are installed and removed by the harness.
Nothing here touches ``src/``; in-program tracing is a later issue.

Entry points:

* ``python3 benchmarks/ledger/run.py --workload W --seed S --seconds T --trace 0|1``
  -- one workload in one process (the ``BENCHMARK.json`` command);
* ``PYTHONPATH=src python -m benchmarks.ledger run`` -- all five workloads,
  each in its own child process, plus the traced pass;
* ``PYTHONPATH=src python -m benchmarks.ledger compare A.json B.json``.
"""
