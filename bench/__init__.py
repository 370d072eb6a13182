"""The repo's benchmark: 7 workloads measured from outside ``src/repro``.

End-to-end numbers come from the paths users take (``python -m repro
paradigm …`` children and a real ``python -m repro serve`` child);
per-layer numbers come from bench-side spans around calls into each
layer's public functions.  Nothing under ``src/`` is edited or imported
at module import time — see ``bench/README.md`` for the metric,
workload and interaction tables and ``BENCHMARK.json`` for the contract.
"""
