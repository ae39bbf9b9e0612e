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

from repro import _exports

_EXPORTS = {
    "ANALYSES": "findings",
    "DISCIPLINE": "findings",
    "LOCK_ORDER": "findings",
    "RACE": "findings",
    "RUNTIME": "findings",
    "STATIC": "findings",
    "AccessSite": "findings",
    "CheckReport": "findings",
    "DEFAULT_THREADS": "config",
    "Finding": "findings",
    "StaticReport": "static",
    "ThreadSanitizer": "sanitizer",
    "analyze_application": "static",
    "analyze_workload": "static",
    "check_application": "runner",
    "check_workload": "runner",
}

__all__ = sorted(_EXPORTS)

__getattr__ = _exports(__name__, _EXPORTS)
