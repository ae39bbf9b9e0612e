"""Static workload analyzer: ahead-of-run verification and FDT priors.

Abstract-executes thread programs (no simulation) and proves structural
properties from their op summaries: lock pairing, lock-order cycles and
write-write lockset races, barrier consistency, critical-section and
footprint profiles that yield static SAT/BAT priors, and structural
lints.  Entry points:

* :func:`~repro.check.static.analyzer.analyze_workload` /
  :func:`~repro.check.static.analyzer.analyze_application` — run the
  whole pipeline (``repro check``);
* :class:`~repro.check.static.executor.AbstractExecutor` — the driver,
  for callers that want raw summaries.
"""

from repro.check.static.analyzer import (
    DEFAULT_THREAD_COUNTS,
    StaticReport,
    analyze_application,
    analyze_workload,
)
from repro.check.static.executor import AbstractExecutor
from repro.check.static.summary import TeamSummary, ThreadSummary

__all__ = [
    "AbstractExecutor",
    "DEFAULT_THREAD_COUNTS",
    "StaticReport",
    "TeamSummary",
    "ThreadSummary",
    "analyze_application",
    "analyze_workload",
]
