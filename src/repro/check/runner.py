"""Run the thread sanitizer over an application or a named workload.

``repro check`` builds a machine with a :class:`~repro.check.sanitizer.
ThreadSanitizer` attached, executes the workload under a static team
(training is irrelevant here — the sanitizer watches the execution
stream), and collects the findings.  Runs that abort (a deadlocked event
queue, an unlock the lock manager refuses) are themselves reported as a
``runtime`` finding, so a crashing workload can never look clean.
"""

from __future__ import annotations

from typing import Callable

from repro.check.findings import RUNTIME, CheckReport, Finding
from repro.check.sanitizer import SanitizerConfig, ThreadSanitizer
from repro.errors import DeadlockError, SimulationError, WorkloadError
from repro.fdt.policies import StaticPolicy
from repro.fdt.runner import Application
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine
from repro.workloads import get
from repro.workloads.synthetic import sanitizer_fixtures, static_fixtures

#: Default team size for checks.  Races and ordering violations need at
#: least two threads; four keeps the run cheap while exercising real
#: contention on every lock and barrier.
DEFAULT_THREADS = 4


def check_application(app: Application,
                      config: MachineConfig | None = None,
                      threads: int = DEFAULT_THREADS,
                      sanitizer: SanitizerConfig | None = None) -> CheckReport:
    """Run every kernel of ``app`` under the sanitizer; report findings.

    Args:
        app: the application to check.
        config: machine to check on (baseline Table 1 machine if None).
        threads: static team size for the checked run (>= 2 to give the
            race detector something to see).
        sanitizer: analysis knobs; defaults to everything on.

    Returns:
        A :class:`~repro.check.findings.CheckReport`; ``report.clean``
        is True when nothing was found and the run completed.
    """
    observer = ThreadSanitizer(sanitizer)
    machine = Machine(config, observers=[observer])
    policy = StaticPolicy(max(2, min(threads, machine.config.num_thread_slots)))

    aborted: str | None = None
    try:
        for kernel in app.kernels:
            policy.run_kernel(machine, kernel)
    except (DeadlockError, SimulationError) as exc:
        aborted = str(exc)
    finally:
        machine.close()

    findings = list(observer.finish())
    if aborted is not None:
        findings.append(Finding(
            analysis=RUNTIME,
            kind="aborted",
            message=f"the checked run aborted: {aborted}",
            details={"error": aborted},
        ))
    return CheckReport(
        workload=app.name,
        threads=policy.threads or machine.config.num_cores,
        findings=tuple(findings),
        aborted=aborted,
        cycles=machine.now,
        dropped=observer.dropped,
    )


def fixtures() -> dict[str, Callable[[float], Application]]:
    """Every fixture both checkers accept: the sanitizer's positive
    controls (``synthetic-*``) and the static analyzer's (``static-*``)."""
    return {**sanitizer_fixtures(), **static_fixtures()}


def resolve(name: str) -> Callable[[float], Application]:
    """The ``scale -> Application`` builder ``repro check`` runs for
    ``name``: a fixture, else a Table 2 registry entry.

    Raises:
        WorkloadError: unknown name.
    """
    known = fixtures()
    if name in known:
        return known[name]
    try:
        return get(name).build
    except WorkloadError:
        raise WorkloadError(
            f"unknown workload {name!r} (fixtures: "
            f"{', '.join(sorted(known))}; run 'repro list' for the "
            f"Table 2 roster)") from None


def check_workload(name: str, scale: float = 0.5,
                   config: MachineConfig | None = None,
                   threads: int = DEFAULT_THREADS,
                   sanitizer: SanitizerConfig | None = None) -> CheckReport:
    """Check a workload by name (see :func:`resolve`).

    Raises:
        WorkloadError: unknown name.
    """
    return check_application(resolve(name)(scale), config=config,
                             threads=threads, sanitizer=sanitizer)
