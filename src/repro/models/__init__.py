"""Analytical performance models from the paper (Sections 4.1, 5.1, Appendix).

These are the closed-form models SAT and BAT evaluate at run time:

* :mod:`repro.models.sat_model` — Eq. 1-3: execution time under critical-
  section serialization and the optimal thread count ``P_CS``.
* :mod:`repro.models.bat_model` — Eq. 4-6: bus utilization scaling and the
  saturation thread count ``P_BW``.
* :mod:`repro.models.combined` — Eq. 7 and the appendix proof that
  ``min(P_CS, P_BW)`` minimizes execution time.
"""

from repro.models.sat_model import SatModel, optimal_threads_cs
from repro.models.bat_model import BatModel, saturation_threads
from repro.models.combined import CombinedModel

__all__ = [
    "SatModel",
    "optimal_threads_cs",
    "BatModel",
    "saturation_threads",
    "CombinedModel",
]
