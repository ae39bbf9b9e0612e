"""The program checker for simulated programs (``repro check``).

FDT trusts counter measurements taken while a kernel executes; a kernel
with a data race or a latent deadlock feeds the training stage garbage
``T_CS``/``BU_1`` samples and silently wrong thread counts.  This
package is the correctness gate in front of that pipeline, and it never
simulates: :mod:`repro.check.static` abstract-executes the op streams
to prove lock pairing, lock-order cycles (:mod:`repro.check.lockorder`),
Eraser's write-write lockset rule and barrier consistency, and derives
static SAT/BAT priors.

:func:`analyze_workload` (the ``repro check`` CLI entry) and
:func:`analyze_application` give a one-call :class:`StaticReport`.

Nothing here takes configuration: a verdict is a function of the
program and the machine.  Every pass always runs, and a caller who
wants less filters the report it gets back (``Finding.kind``,
``details["address"]``).
"""

from repro import _exports

_EXPORTS = {
    "Finding": "findings",
    "StaticReport": "static",
    "analyze_application": "static",
    "analyze_workload": "static",
}

__all__ = sorted(_EXPORTS)

__getattr__ = _exports(__name__, _EXPORTS)
