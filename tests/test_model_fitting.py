"""Tests for the sweep-to-model fitting tools."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.bat_model import BatModel
from repro.models.sat_model import SatModel

from tests.fitting import classify_sweep, fit_bat, fit_sat, r_squared

GRID = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32)


def test_r_squared_perfect_fit():
    assert r_squared([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)


def test_r_squared_mean_prediction_is_zero():
    assert r_squared([1.0, 2.0, 3.0], [2.0, 2.0, 2.0]) == pytest.approx(0.0)


def test_r_squared_validates_inputs():
    with pytest.raises(ValueError):
        r_squared([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        r_squared([], [])


def test_fit_sat_recovers_exact_parameters():
    truth = SatModel(t_nocs=1000.0, t_cs=12.0)
    times = [truth.execution_time(p) for p in GRID]
    fit = fit_sat(GRID, times)
    assert fit.model.t_nocs == pytest.approx(1000.0, rel=1e-9)
    assert fit.model.t_cs == pytest.approx(12.0, rel=1e-9)
    assert fit.r2 == pytest.approx(1.0)


@given(t_nocs=st.floats(10.0, 1e6), t_cs=st.floats(0.01, 1e4))
@settings(max_examples=80)
def test_fit_sat_roundtrip_property(t_nocs, t_cs):
    truth = SatModel(t_nocs=t_nocs, t_cs=t_cs)
    times = [truth.execution_time(p) for p in GRID]
    fit = fit_sat(GRID, times)
    assert fit.r2 > 0.999999
    assert fit.implied_optimum == pytest.approx(truth.optimal_threads(),
                                                rel=1e-4)


def test_fit_sat_clamps_negative_cs():
    # A perfectly scaling curve fits T_CS = 0 (never negative).
    times = [100.0 / p for p in GRID]
    fit = fit_sat(GRID, times)
    assert fit.model.t_cs >= 0.0
    assert fit.r2 > 0.999


def test_fit_sat_validates_inputs():
    with pytest.raises(ValueError):
        fit_sat((1,), (1.0,))
    with pytest.raises(ValueError):
        fit_sat((2, 2), (1.0, 1.0))


def test_fit_bat_recovers_knee():
    truth = BatModel(t1=1000.0, bu1=0.125)  # knee at 8
    times = [truth.execution_time(p) for p in GRID]
    fit = fit_bat(GRID, times)
    assert fit.implied_knee == pytest.approx(8.0, abs=0.3)
    assert fit.r2 > 0.9999


@given(knee=st.floats(2.0, 24.0))
@settings(max_examples=60)
def test_fit_bat_roundtrip_property(knee):
    truth = BatModel(t1=500.0, bu1=1.0 / knee)
    times = [truth.execution_time(p) for p in GRID]
    fit = fit_bat(GRID, times)
    assert fit.implied_knee == pytest.approx(knee, abs=0.3)


def test_classify_synthetic_curves():
    cs = SatModel(t_nocs=1000.0, t_cs=30.0)  # optimum ~5.8
    bw = BatModel(t1=1000.0, bu1=0.125)      # knee 8
    scalable = [1000.0 / p for p in GRID]
    assert classify_sweep(GRID, [cs.execution_time(p) for p in GRID]) == \
        "cs-limited"
    assert classify_sweep(GRID, [bw.execution_time(p) for p in GRID]) == \
        "bw-limited"
    assert classify_sweep(GRID, scalable) == "scalable"


def test_fit_against_simulated_pagemine_sweep():
    """The simulator's Figure 2 curve follows Eq. 1 (R² > 0.9)."""
    from repro.analysis.sweep import sweep_threads
    from repro.sim.config import MachineConfig
    from repro.workloads import get
    sweep = sweep_threads(lambda: get("PageMine").build(0.15),
                          (1, 2, 4, 6, 8, 12, 16, 32),
                          MachineConfig.asplos08_baseline())
    times = [float(p.cycles) for p in sweep.points]
    fit = fit_sat(sweep.thread_counts, times)
    assert fit.r2 > 0.9
    assert 3 <= fit.implied_optimum <= 8
    assert classify_sweep(sweep.thread_counts, times) == "cs-limited"


def test_fit_against_simulated_ed_sweep():
    """The simulator's Figure 4 curve follows Eq. 6 (R² > 0.95)."""
    from repro.analysis.sweep import sweep_threads
    from repro.sim.config import MachineConfig
    from repro.workloads import get
    sweep = sweep_threads(lambda: get("ED").build(0.1),
                          (1, 2, 4, 6, 8, 12, 16, 32),
                          MachineConfig.asplos08_baseline())
    times = [float(p.cycles) for p in sweep.points]
    fit = fit_bat(sweep.thread_counts, times)
    assert fit.r2 > 0.95
    # The least-squares knee sits a little under the utilization knee
    # (queueing rounds the corner): accept the band around 8.
    assert 6 <= fit.implied_knee <= 11
    assert classify_sweep(sweep.thread_counts, times) == "bw-limited"
