"""Test instrument: fit the analytical models to measured sweeps.

The paper presents Eq. 1 and Eq. 6 and shows curves that follow them;
this module closes the loop quantitatively: given a measured
execution-time-vs-threads sweep, recover the model parameters by least
squares and report the fit quality.  ``tests/test_model_fitting.py``
uses it to check that sweeps follow Eq. 1 / Eq. 6.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.models.bat_model import BatModel
from repro.models.sat_model import SatModel


def r_squared(measured: Sequence[float], predicted: Sequence[float]) -> float:
    """Coefficient of determination of ``predicted`` against ``measured``."""
    if len(measured) != len(predicted) or not measured:
        raise ValueError("series must be non-empty and aligned")
    mean = sum(measured) / len(measured)
    ss_tot = sum((y - mean) ** 2 for y in measured)
    ss_res = sum((y - p) ** 2 for y, p in zip(measured, predicted))
    if ss_tot == 0:
        return 1.0 if ss_res == 0 else 0.0
    return 1.0 - ss_res / ss_tot


@dataclass(frozen=True, slots=True)
class SatFit:
    """Least-squares Eq. 1 fit to a measured sweep."""

    model: SatModel
    r2: float

    @property
    def implied_optimum(self) -> float:
        return self.model.optimal_threads()


def fit_sat(thread_counts: Sequence[int],
            times: Sequence[float]) -> SatFit:
    """Fit ``T_P = T_NoCS / P + P * T_CS`` by linear least squares.

    Eq. 1 is linear in (T_NoCS, T_CS) with regressors (1/P, P), so the
    normal equations solve it exactly.  Negative parameters are clamped
    to zero (a sweep with no CS signature fits T_CS = 0).
    """
    if len(thread_counts) != len(times) or len(times) < 2:
        raise ValueError("need at least two aligned sweep points")
    # Normal equations for y = a * (1/P) + b * P.
    s_xx = sum((1.0 / p) ** 2 for p in thread_counts)
    s_xz = sum((1.0 / p) * p for p in thread_counts)  # == len
    s_zz = sum(float(p) ** 2 for p in thread_counts)
    s_xy = sum(y / p for p, y in zip(thread_counts, times))
    s_zy = sum(y * p for p, y in zip(thread_counts, times))
    det = s_xx * s_zz - s_xz * s_xz
    if det == 0:
        raise ValueError("degenerate sweep (identical thread counts)")
    t_nocs = (s_xy * s_zz - s_zy * s_xz) / det
    t_cs = (s_zy * s_xx - s_xy * s_xz) / det
    model = SatModel(t_nocs=max(0.0, t_nocs), t_cs=max(0.0, t_cs))
    predicted = [model.execution_time(p) for p in thread_counts]
    return SatFit(model=model, r2=r_squared(list(times), predicted))


@dataclass(frozen=True, slots=True)
class BatFit:
    """Best Eq. 6 fit to a measured sweep."""

    model: BatModel
    r2: float

    @property
    def implied_knee(self) -> float:
        return self.model.saturation_threads()


def fit_bat(thread_counts: Sequence[int],
            times: Sequence[float]) -> BatFit:
    """Fit ``T_P = T_1 / min(P, P_BW)`` by scanning the knee.

    Eq. 6 is piecewise; for each candidate knee the best T_1 is a
    closed-form least-squares scale, so a scan over a fine knee grid
    finds the global optimum.
    """
    if len(thread_counts) != len(times) or len(times) < 2:
        raise ValueError("need at least two aligned sweep points")
    p_max = max(thread_counts)
    best: BatFit | None = None
    knee = 1.0
    while knee <= p_max + 1:
        xs = [1.0 / min(p, knee) for p in thread_counts]
        denom = sum(x * x for x in xs)
        t1 = sum(x * y for x, y in zip(xs, times)) / denom
        model = BatModel(t1=t1, bu1=1.0 / knee)
        predicted = [model.execution_time(p) for p in thread_counts]
        fit = BatFit(model=model, r2=r_squared(list(times), predicted))
        if best is None or fit.r2 > best.r2:
            best = fit
        knee += 0.25
    assert best is not None
    return best


def classify_sweep(thread_counts: Sequence[int],
                   times: Sequence[float]) -> str:
    """Which analytical model explains a sweep better?

    Returns ``"cs-limited"``, ``"bw-limited"``, or ``"scalable"`` (when
    both fits agree the curve is still falling at the last point).
    """
    sat = fit_sat(thread_counts, times)
    bat = fit_bat(thread_counts, times)
    p_max = max(thread_counts)
    if sat.r2 >= bat.r2 and sat.implied_optimum < p_max * 0.9:
        return "cs-limited"
    if bat.implied_knee < p_max * 0.9:
        return "bw-limited"
    return "scalable"
