"""Thread sanitizer for simulated programs (``repro check``).

FDT trusts counter measurements taken while a kernel executes; a kernel
with a data race or a latent deadlock feeds the training stage garbage
``T_CS``/``BU_1`` samples and silently wrong thread counts.  This
package is the correctness gate in front of that pipeline:

* :mod:`repro.check.lockset` — Eraser-style lockset race detection;
* :mod:`repro.check.lockorder` — lock-order (potential deadlock) cycles;
* :mod:`repro.check.discipline` — lock/barrier/counter discipline lint;
* :mod:`repro.check.static` — ahead-of-run analysis: abstract-executes
  the op streams (no simulation) to prove lock/barrier properties and
  derive static SAT/BAT priors.

Hand a :class:`ThreadSanitizer` to ``Machine(config, observers=[...])``
to observe any run, or use
:func:`check_application` / :func:`check_workload` (the ``repro check``
CLI entry) for a one-call verdict; :func:`analyze_workload` is the
static-analysis counterpart (``repro check --static``).

Nothing here takes configuration: a verdict is a function of the
program and the machine.  Every analysis and pass always runs, and a
caller who wants less filters the report it gets back
(``Finding.analysis``, ``Finding.kind``, ``details["address"]``).
"""

from repro.check.findings import (
    ANALYSES,
    DISCIPLINE,
    LOCK_ORDER,
    RACE,
    RUNTIME,
    STATIC,
    AccessSite,
    CheckReport,
    Finding,
)
from repro.check.runner import DEFAULT_THREADS, check_application, check_workload
from repro.check.sanitizer import ThreadSanitizer
from repro.check.static import (
    StaticReport,
    analyze_application,
    analyze_workload,
)

__all__ = [
    "ANALYSES",
    "DISCIPLINE",
    "LOCK_ORDER",
    "RACE",
    "RUNTIME",
    "STATIC",
    "AccessSite",
    "CheckReport",
    "DEFAULT_THREADS",
    "Finding",
    "StaticReport",
    "ThreadSanitizer",
    "analyze_application",
    "analyze_workload",
    "check_application",
    "check_workload",
]
