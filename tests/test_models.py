"""Unit tests for the analytical models (Eq. 1-7)."""

from __future__ import annotations

import math

import pytest

from repro.models.bat_model import BatModel
from repro.models.bat_model import execution_time as bat_time
from repro.models.bat_model import predicted_thread_count as bat_predict
from repro.models.bat_model import bus_utilization, saturation_threads
from repro.models.combined import CombinedModel
from repro.models.sat_model import SatModel
from repro.models.sat_model import execution_time as sat_time
from repro.models.sat_model import optimal_threads_cs
from repro.models.sat_model import predicted_thread_count as sat_predict


# -- SAT (Eq. 1-3) ---------------------------------------------------------

def test_eq1_paper_example():
    """Figure 6: 20% CS -> 10, 8, 10, 17 units at P = 1, 2, 4, 8."""
    assert sat_time(8, 2, 1) == 10
    assert sat_time(8, 2, 2) == 8
    assert sat_time(8, 2, 4) == 10
    assert sat_time(8, 2, 8) == 17


def test_eq3_square_root_law():
    assert optimal_threads_cs(100, 1) == pytest.approx(10.0)
    assert optimal_threads_cs(99, 1) == pytest.approx(math.sqrt(99))


def test_eq3_one_percent_cs_caps_at_ten_threads():
    """Paper: 'if the critical section accounts for only 1% of the
    overall execution time, the system becomes critical section limited
    with just 10 threads.'"""
    p = optimal_threads_cs(t_nocs=99.0, t_cs=1.0)
    assert 9.0 <= p <= 10.0


def test_eq2_derivative_sign_change_at_optimum():
    """Eq. 1 falls up to the Eq. 3 optimum and rises after it: the
    optimum minimises Eq. 1 over the integers around it."""
    for t_nocs, t_cs in ((64, 1), (42.64, 1.0), (1000, 3)):
        p_opt = optimal_threads_cs(t_nocs, t_cs)
        lo, hi = math.floor(p_opt), math.ceil(p_opt)
        best = min(sat_time(t_nocs, t_cs, p) for p in (lo, hi))
        for p in (lo - 2, lo - 1, hi + 1, hi + 2):
            assert sat_time(t_nocs, t_cs, p) > best


def test_no_critical_section_means_unbounded():
    assert optimal_threads_cs(10, 0) == math.inf
    assert optimal_threads_cs(10, 0, max_threads=32) == 32.0


def test_sat_prediction_rounds_to_nearest():
    # sqrt(42.6) = 6.53 -> 7 (the paper's PageMine arithmetic).
    assert sat_predict(42.64, 1.0, num_cores=32) == 7
    # sqrt(16) = 4 exactly.
    assert sat_predict(16, 1, num_cores=32) == 4


def test_sat_prediction_clamped_to_cores():
    assert sat_predict(10_000, 1, num_cores=32) == 32


def test_sat_prediction_at_least_one():
    assert sat_predict(0.01, 100, num_cores=32) == 1


def test_sat_invalid_inputs():
    with pytest.raises(ValueError):
        sat_time(-1, 1, 2)
    with pytest.raises(ValueError):
        sat_time(1, 1, 0)
    with pytest.raises(ValueError):
        optimal_threads_cs(-1, 1)


# -- BAT (Eq. 4-6) -----------------------------------------------------------

def test_eq4_linear_scaling_capped():
    assert bus_utilization(0.25, 1) == 0.25
    assert bus_utilization(0.25, 2) == 0.50
    assert bus_utilization(0.25, 4) == 1.00
    assert bus_utilization(0.25, 8) == 1.00


def test_eq5_ten_percent_saturates_at_ten_threads():
    """Paper: 'if a single thread utilizes the off-chip bus for 10% of
    the time, then the system will become bandwidth limited for more
    than 10 threads.'"""
    assert saturation_threads(0.10) == pytest.approx(10.0)


def test_eq6_flat_beyond_saturation():
    assert bat_time(100, 0.25, 2) == 50
    assert bat_time(100, 0.25, 4) == 25
    assert bat_time(100, 0.25, 8) == 25  # paper Figure 11: P=4 == P=8


def test_bat_prediction_rounds_up():
    # 1/0.058 = 17.24 -> 18; 1/0.0625 = 16 exactly -> 16.
    assert bat_predict(0.058, 32) == 18
    assert bat_predict(0.0625, 32) == 16
    # The paper's ED: BU_1 = 14.3% -> 6.99 -> 7.
    assert bat_predict(0.143, 32) == 7


def test_bat_prediction_clamped_to_cores():
    assert bat_predict(0.001, 32) == 32


def test_zero_utilization_means_unbounded():
    assert saturation_threads(0.0) == math.inf
    assert bat_predict(0.0, 32) == 32


def test_bat_invalid_inputs():
    with pytest.raises(ValueError):
        bus_utilization(1.5, 1)
    with pytest.raises(ValueError):
        bus_utilization(0.5, 0)
    with pytest.raises(ValueError):
        saturation_threads(-0.1)


def test_bat_model_utilization_curve():
    m = BatModel(t1=1.0, bu1=0.125)
    assert m.bus_utilization(1) == pytest.approx(0.125)
    assert m.bus_utilization(8) == pytest.approx(1.0)
    assert m.bus_utilization(16) == pytest.approx(1.0)


# -- Combined (Eq. 7 + appendix) --------------------------------------------

def _eq7(p_cs: float, p_bw: float, cores: int) -> int:
    """Eq. 7 on the model whose real-valued optima are p_cs and p_bw."""
    sat = (SatModel(t_nocs=1.0, t_cs=0.0) if math.isinf(p_cs)
           else SatModel(t_nocs=p_cs * p_cs, t_cs=1.0))
    bat = BatModel(t1=1.0, bu1=0.0 if math.isinf(p_bw) else 1.0 / p_bw)
    return CombinedModel(sat=sat, bat=bat).eq7_choice(cores)


def test_eq7_takes_minimum():
    assert _eq7(5.0, 20.0, 32) == 5
    assert _eq7(20.0, 5.0, 32) == 5
    assert _eq7(20.0, 20.0, 8) == 8


def test_eq7_rounding_mirrors_sat_and_bat():
    # P_CS rounds to nearest; P_BW rounds up.
    assert _eq7(6.4, math.inf, 32) == 6
    assert _eq7(math.inf, 6.4, 32) == 7


def test_eq7_infinite_limits_fall_back_to_cores():
    assert _eq7(math.inf, math.inf, 32) == 32
    with pytest.raises(ValueError):
        _eq7(math.inf, math.inf, 0)


def test_combined_time_reduces_to_sat_when_bus_unbounded():
    m = CombinedModel(sat=SatModel(80, 2), bat=BatModel(100, 0.0))
    for p in (1, 2, 4, 8):
        assert m.execution_time(p) == pytest.approx(sat_time(80, 2, p))


def test_appendix_case1_pcs_below_pbw():
    """Figure 16: with P_CS < P_BW the minimum is at P_CS."""
    m = CombinedModel(sat=SatModel(100, 4), bat=BatModel(100, 0.05))
    assert m.minimizer(32) == m.eq7_choice(32) == 5


def test_appendix_case2_pbw_below_pcs():
    """Figure 17: with P_BW < P_CS the minimum shifts to P_BW."""
    m = CombinedModel(sat=SatModel(100, 0.25), bat=BatModel(100, 0.2))
    assert m.eq7_choice(32) == 5
    assert m.execution_time(m.minimizer(32)) == pytest.approx(
        m.execution_time(5), rel=0.05)


def test_combined_curve_length():
    m = CombinedModel(sat=SatModel(10, 1), bat=BatModel(10, 0.5))
    assert len(m.curve(16)) == 16
