"""Run the thread sanitizer over an application or a named workload.

``repro check`` builds a machine with a :class:`~repro.check.sanitizer.
ThreadSanitizer` attached, executes the workload under a static team
(training is irrelevant here — the sanitizer watches the execution
stream), and collects the findings.  Runs that abort (a deadlocked event
queue, an unlock the lock manager refuses) are themselves reported as a
``runtime`` finding, so a crashing workload can never look clean.
"""

from __future__ import annotations

from repro.check.config import DEFAULT_THREADS
from repro.check.findings import RUNTIME, CheckReport, Finding
from repro.check.sanitizer import ThreadSanitizer
from repro.errors import (
    ConfigError,
    DeadlockError,
    SimulationError,
    WorkloadError,
)
from repro.fdt.policies import StaticPolicy
from repro.fdt.runner import Application
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine
from repro.workloads import get
from repro.workloads.base import AppBuilder
from repro.workloads.synthetic import FIXTURES


def check_application(app: Application,
                      config: MachineConfig | None = None,
                      threads: int = DEFAULT_THREADS) -> CheckReport:
    """Run every kernel of ``app`` under the sanitizer; report findings.

    Args:
        app: the application to check.
        config: machine to check on (baseline Table 1 machine if None).
        threads: static team size for the checked run (>= 2 to give the
            race detector something to see).

    Returns:
        A :class:`~repro.check.findings.CheckReport`; ``report.clean``
        is True when nothing was found and the run completed.

    Raises:
        ConfigError: the machine has fewer than 2 thread slots — a team
            of one has nobody to race or deadlock with, so every
            positive control would pass vacuously.
    """
    config = config or MachineConfig.asplos08_baseline()
    slots = config.num_thread_slots
    if slots < 2:
        raise ConfigError(
            f"a checked run needs a team of at least 2 threads, but this "
            f"machine has {slots} thread slot(s); give it more cores or "
            f"SMT contexts, or run the static analysis alone")
    observer = ThreadSanitizer()
    machine = Machine(config, observers=[observer])
    # The report names the team that ran, not the one asked for; a run
    # that aborts inside its first kernel was launched with this one.
    team = max(2, min(threads, slots))
    policy = StaticPolicy(team)

    aborted: str | None = None
    try:
        for kernel in app.kernels:
            team = policy.run_kernel(machine, kernel).threads
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
        threads=team,
        findings=tuple(findings),
        aborted=aborted,
        cycles=machine.now,
        dropped=observer.dropped,
    )


def resolve(name: str) -> AppBuilder:
    """The ``scale -> Application`` builder ``repro check`` runs for
    ``name``: a fixture (:data:`~repro.workloads.synthetic.FIXTURES`),
    else a Table 2 registry entry.

    Raises:
        WorkloadError: unknown name.
    """
    if name in FIXTURES:
        return FIXTURES[name]
    try:
        return get(name).build
    except WorkloadError:
        raise WorkloadError(
            f"unknown workload {name!r} (fixtures: "
            f"{', '.join(sorted(FIXTURES))}; run 'repro list' for the "
            f"Table 2 roster)") from None


def check_workload(name: str, scale: float = 0.5,
                   config: MachineConfig | None = None,
                   threads: int = DEFAULT_THREADS) -> CheckReport:
    """Check a workload by name (see :func:`resolve`).

    Raises:
        WorkloadError: unknown name.
    """
    return check_application(resolve(name)(scale), config=config,
                             threads=threads)
