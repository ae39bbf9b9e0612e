"""Experiment harness: thread sweeps, the oracle policy, and reporting."""

from repro import _exports

_EXPORTS = {
    "ThreadPoint": "sweep",
    "SweepResult": "sweep",
    "sweep_threads": "sweep",
    "OracleChoice": "oracle",
    "oracle_choice": "oracle",
    "ascii_table": "report",
    "ascii_bars": "report",
    "gmean": "report",
    "machine_report": "inspection",
    "machine_report_json": "inspection",
    "Comparison": "compare",
    "compare_policies": "compare",
}

__all__ = list(_EXPORTS)

__getattr__ = _exports(__name__, _EXPORTS)
