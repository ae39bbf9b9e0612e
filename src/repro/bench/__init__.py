"""Fixed simulator scenarios (host-throughput probes, not paper results).

:mod:`repro.bench.scenarios` holds four deterministic workloads —
compute-bound, miss-bound, critical-section-heavy, and a full FDT
train+run.  The repository benchmark (``benchmarks/perf/run.py``) times
them as its simulator probes.
"""
