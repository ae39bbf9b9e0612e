"""Exact JSON serialization of application run results.

The cache and the process-pool boundary both move results as JSON-safe
dicts, so the round trip must be *bit-identical*: every integer counter,
every float (Python's ``json`` emits ``repr``-style floats, which round
trip exactly), and the two possibly-infinite model outputs
(``p_cs_real``/``p_bw_real``), which
:meth:`~repro.fdt.estimators.Estimates.to_dict` encodes as strings to
keep the files strict JSON.

``JobRunner`` deliberately routes *every* result — even ones computed
serially in-process — through this round trip, so a serialization bug
would show up immediately in the parity tests instead of only when a
cache or a worker pool is involved.
"""

from __future__ import annotations

from dataclasses import fields

from repro.fdt.estimators import Estimates
from repro.fdt.policies import KernelRunInfo
from repro.fdt.runner import AppRunResult
from repro.sim.stats import RunResult


def run_result_to_dict(result: RunResult) -> dict:
    """The one run-result encoding: :meth:`RunResult.to_dict`.

    Includes the derived metrics (power, bus_utilization, ipc, energy)
    for consumers reading the JSON directly; :func:`run_result_from_dict`
    rebuilds from the counter fields alone, so the round trip stays
    bit-identical (derived floats are pure functions of the counters).
    """
    return result.to_dict()


def run_result_from_dict(data: dict) -> RunResult:
    names = {f.name for f in fields(RunResult)}
    return RunResult(**{k: v for k, v in data.items() if k in names})


def kernel_info_to_dict(info: KernelRunInfo) -> dict:
    return {
        "kernel_name": info.kernel_name,
        "policy_name": info.policy_name,
        "threads": info.threads,
        "trained_iterations": info.trained_iterations,
        "training_cycles": info.training_cycles,
        "execution_cycles": info.execution_cycles,
        "result": run_result_to_dict(info.result),
        "estimates": (None if info.estimates is None
                      else info.estimates.to_dict()),
        "stop_reason": info.stop_reason,
    }


def kernel_info_from_dict(data: dict) -> KernelRunInfo:
    return KernelRunInfo(
        kernel_name=data["kernel_name"],
        policy_name=data["policy_name"],
        threads=data["threads"],
        trained_iterations=data["trained_iterations"],
        training_cycles=data["training_cycles"],
        execution_cycles=data["execution_cycles"],
        result=run_result_from_dict(data["result"]),
        estimates=(None if data["estimates"] is None
                   else Estimates.from_dict(data["estimates"])),
        stop_reason=data["stop_reason"],
    )


def app_result_to_dict(result: AppRunResult) -> dict:
    """Serialize an application run's full outcome."""
    return {
        "app_name": result.app_name,
        "policy_name": result.policy_name,
        "kernel_infos": [kernel_info_to_dict(k) for k in result.kernel_infos],
    }


def app_result_from_dict(data: dict) -> AppRunResult:
    """Exact inverse of :func:`app_result_to_dict`."""
    return AppRunResult(
        app_name=data["app_name"],
        policy_name=data["policy_name"],
        kernel_infos=tuple(kernel_info_from_dict(k)
                           for k in data["kernel_infos"]),
    )
