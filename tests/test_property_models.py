"""Property-based tests for the analytical models (hypothesis)."""

from __future__ import annotations

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.fdt.estimators import estimate_from
from repro.models.bat_model import BatModel
from repro.models.combined import CombinedModel
from repro.models.sat_model import SatModel, optimal_threads_cs

positive = st.floats(min_value=1e-3, max_value=1e9, allow_nan=False,
                     allow_infinity=False)
utilization = st.floats(min_value=1e-4, max_value=1.0)
threads = st.integers(min_value=1, max_value=256)


@given(t_nocs=positive, t_cs=positive)
def test_sat_optimum_is_square_root(t_nocs, t_cs):
    p = optimal_threads_cs(t_nocs, t_cs)
    assert p * p == math.isclose(t_nocs / t_cs, p * p) or math.isclose(
        p, math.sqrt(t_nocs / t_cs), rel_tol=1e-9)


@given(t_nocs=positive, t_cs=positive)
@settings(max_examples=200)
def test_sat_continuous_optimum_beats_neighbours(t_nocs, t_cs):
    m = SatModel(t_nocs, t_cs)
    p = m.optimal_threads()
    assume(p >= 1.0)
    t_opt = t_nocs / p + p * t_cs
    for other in (p * 0.5, p * 2.0):
        assert t_opt <= t_nocs / other + other * t_cs + 1e-9


@given(t_nocs=positive, t_cs=positive, cores=st.integers(1, 64))
def test_sat_integer_prediction_near_optimal(t_nocs, t_cs, cores):
    """The rounded prediction is never beaten by any integer by more
    than the rounding loss (checked against exhaustive argmin)."""
    m = SatModel(t_nocs, t_cs)
    predicted = m.predicted_thread_count(cores)
    best = min(range(1, cores + 1), key=m.execution_time)
    assert m.execution_time(predicted) <= m.execution_time(best) * 1.5


@given(t_nocs=positive, t_cs=positive)
def test_sat_execution_time_positive(t_nocs, t_cs):
    m = SatModel(t_nocs, t_cs)
    for p in (1, 2, 7, 32):
        assert m.execution_time(p) > 0


@given(bu1=utilization, p=threads)
def test_bat_utilization_capped_and_monotone(bu1, p):
    m = BatModel(t1=100.0, bu1=bu1)
    u = m.bus_utilization(p)
    assert 0.0 <= u <= 1.0
    assert m.bus_utilization(p + 1) >= u


@given(bu1=utilization, p=threads)
def test_bat_time_monotone_nonincreasing(bu1, p):
    m = BatModel(t1=100.0, bu1=bu1)
    assert m.execution_time(p + 1) <= m.execution_time(p) + 1e-9


@given(bu1=utilization)
def test_bat_time_flat_beyond_saturation(bu1):
    m = BatModel(t1=100.0, bu1=bu1)
    p_bw = m.saturation_threads()
    p = int(math.ceil(p_bw)) + 1
    assert math.isclose(m.execution_time(p), m.execution_time(p + 5))


@given(bu1=utilization, cores=st.integers(1, 64))
def test_bat_prediction_saturates_the_bus(bu1, cores):
    m = BatModel(t1=100.0, bu1=bu1)
    predicted = m.predicted_thread_count(cores)
    # Either the prediction saturates the bus, or the cores ran out.
    assert m.bus_utilization(predicted) >= 0.999 or predicted == cores


@given(t_nocs=positive, t_cs=positive, bu1=utilization,
       cores=st.integers(2, 64))
@settings(max_examples=200)
def test_eq7_is_optimal_in_the_combined_model(t_nocs, t_cs, bu1, cores):
    """The appendix claim: min(P_CS, P_BW, cores) minimizes Eq. 1+6.

    Rounding can shift the pick by one, so compare execution times with
    a small tolerance rather than the argmin indices.
    """
    model = CombinedModel(sat=SatModel(t_nocs, t_cs),
                          bat=BatModel(t1=t_nocs, bu1=bu1))
    choice = model.eq7_choice(cores)
    brute = model.minimizer(cores)
    assert model.execution_time(choice) <= model.execution_time(brute) * 1.6


@given(t_nocs=positive, t_cs=positive, bu1=utilization,
       cores=st.integers(1, 64))
def test_eq7_choice_bounded(t_nocs, t_cs, bu1, cores):
    model = CombinedModel(sat=SatModel(t_nocs, t_cs),
                          bat=BatModel(t1=t_nocs, bu1=bu1))
    choice = model.eq7_choice(cores)
    assert 1 <= choice <= cores
    assert choice <= max(1, round(model.sat.optimal_threads()))
    assert choice <= max(1, math.ceil(model.bat.saturation_threads() - 1e-9))


measurement = st.floats(min_value=0.0, max_value=1e9)


@given(t_cs=measurement, t_nocs=measurement, bu1=st.floats(0.0, 1.0),
       slots=st.integers(1, 128))
@settings(max_examples=300)
def test_estimate_from_is_eq7_with_bats_early_out(t_cs, t_nocs, bu1, slots):
    """The one arithmetic: Eq. 7's clamp, BAT's cannot-saturate
    early-out, and agreement with the analytical CombinedModel."""
    est = estimate_from(t_cs, t_nocs, bu1, slots)
    assert (est.t_cs, est.t_nocs, est.bu1) == (t_cs, t_nocs, bu1)
    assert est.p_fdt == max(1, min(est.p_cs, est.p_bw, slots))
    assert 1 <= est.p_fdt <= slots

    model = CombinedModel(sat=SatModel(t_nocs, t_cs),
                          bat=BatModel(t1=t_nocs, bu1=bu1))
    assert est.p_cs == model.sat.predicted_thread_count(slots)
    assert est.p_cs_real == model.sat.optimal_threads()
    cannot_saturate = bu1 == 0 or bu1 * slots < 1
    assert math.isinf(est.p_bw_real) == cannot_saturate
    if cannot_saturate:
        assert est.p_bw == slots
    else:
        assert est.p_bw_real == 1.0 / bu1
        assert est.p_bw == model.bat.predicted_thread_count(slots)
        assert est.p_fdt == model.eq7_choice(slots)
