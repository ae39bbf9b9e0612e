"""Unit tests for the §9 future-work extensions."""

from __future__ import annotations

import math

import pytest

from repro.errors import TrainingError
from repro.fdt.extensions import (
    CalibratedBatPolicy,
    SubLinearBandwidthModel,
    TwoPhaseSatPolicy,
)
from repro.fdt.policies import POLICIES, FdtMode, FdtPolicy
from repro.fdt.runner import run_application
from repro.jobs import JobSpec, PolicySpec, WorkloadRef
from repro.obs.registry import default_registry, reset_default_registry
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine
from repro.trace import TraceRecorder
from repro.workloads import get
from repro.workloads.synthetic import build_synthetic
from tests.programs import DecisionTap

CFG = MachineConfig.asplos08_baseline()


# -- the sub-linear model ------------------------------------------------------

def test_zero_beta_recovers_linear_model():
    m = SubLinearBandwidthModel(bu1=0.125, beta=0.0)
    assert m.utilization(4) == pytest.approx(0.5)
    assert m.saturation_threads() == pytest.approx(8.0)
    assert m.predicted_thread_count(32) == 8


def test_positive_beta_pushes_saturation_out():
    linear = SubLinearBandwidthModel(bu1=0.125, beta=0.0)
    damped = SubLinearBandwidthModel(bu1=0.125, beta=0.02)
    assert damped.saturation_threads() > linear.saturation_threads()
    for p in (2, 4, 8, 16):
        assert damped.utilization(p) <= linear.utilization(p)


def test_strong_damping_never_saturates():
    m = SubLinearBandwidthModel(bu1=0.05, beta=0.06)
    assert m.saturation_threads() == math.inf
    assert m.predicted_thread_count(32) == 32


def test_fit_from_exact_linear_probe_gives_zero_beta():
    m = SubLinearBandwidthModel.fit(bu1=0.1, probe_threads=4,
                                    probe_utilization=0.4)
    assert m.beta == pytest.approx(0.0)


def test_fit_from_sublinear_probe_recovers_beta():
    truth = SubLinearBandwidthModel(bu1=0.1, beta=0.03)
    fitted = SubLinearBandwidthModel.fit(
        bu1=0.1, probe_threads=4, probe_utilization=truth.utilization(4))
    assert fitted.beta == pytest.approx(0.03, abs=1e-9)
    assert fitted.saturation_threads() == pytest.approx(
        truth.saturation_threads())


def test_fit_clamps_superlinear_probe():
    m = SubLinearBandwidthModel.fit(bu1=0.1, probe_threads=4,
                                    probe_utilization=0.5)
    assert m.beta == 0.0


def test_fit_validates_probe():
    with pytest.raises(TrainingError):
        SubLinearBandwidthModel.fit(0.1, probe_threads=1,
                                    probe_utilization=0.1)


def test_model_utilization_capped():
    m = SubLinearBandwidthModel(bu1=0.5, beta=0.0)
    assert m.utilization(10) == 1.0


# -- policies end-to-end ----------------------------------------------------------

def test_calibrated_bat_matches_or_beats_plain_bat_on_ed():
    plain = run_application(get("ED").build(0.15),
                            FdtPolicy(FdtMode.BAT), CFG)
    calibrated = run_application(get("ED").build(0.15),
                                 CalibratedBatPolicy(), CFG)
    t_plain = plain.kernel_infos[0].threads
    t_cal = calibrated.kernel_infos[0].threads
    # The sub-linear correction never picks fewer threads than linear
    # BAT, and lands at or near the true knee (8).
    assert t_cal >= t_plain
    assert 7 <= t_cal <= 10
    # Execution time no worse than plain BAT's (modulo probe cost).
    assert calibrated.cycles <= plain.cycles * 1.10


def test_calibrated_bat_keeps_scalable_apps_wide():
    res = run_application(get("BScholes").build(0.25),
                          CalibratedBatPolicy(), CFG)
    assert res.kernel_infos[0].threads == 32


def test_calibrated_bat_skips_the_probe_on_a_single_slot_machine():
    """One thread slot leaves no team to probe with: Eq. 5's pick stands
    and nothing beyond the serial training is charged."""
    one = MachineConfig.small(num_cores=1)
    plain = run_application(build_synthetic(bus_lines=8, iterations=64),
                            FdtPolicy(FdtMode.BAT), one)
    calibrated = run_application(build_synthetic(bus_lines=8, iterations=64),
                                 CalibratedBatPolicy(), one)
    assert calibrated.threads_used == plain.threads_used == (1,)
    assert calibrated.cycles == plain.cycles


def test_two_phase_sat_near_best_for_pagemine(memo):
    from repro.analysis.sweep import sweep_threads
    sweep = sweep_threads(WorkloadRef("PageMine", 0.25),
                          (1, 2, 3, 4, 5, 6, 8, 12, 32), CFG, runner=memo)
    res = run_application(get("PageMine").build(0.25),
                          TwoPhaseSatPolicy(), CFG)
    info = res.kernel_infos[0]
    assert 2 <= info.threads <= 8
    assert res.cycles <= sweep.min_cycles * 1.35


def test_two_phase_sat_never_exceeds_first_guess(memo):
    """The contended re-fit can only see a *larger* CS time, so the
    refined count never exceeds plain SAT's pick."""
    plain = memo.run_one(JobSpec(workload=WorkloadRef("ISort", 0.5),
                                 policy=PolicySpec.sat(), config=CFG))
    refined = run_application(get("ISort").build(0.5),
                              TwoPhaseSatPolicy(), CFG)
    assert (refined.kernel_infos[0].threads
            <= plain.kernel_infos[0].threads)


def test_extension_policies_report_training_metadata():
    res = run_application(get("EP").build(0.5), TwoPhaseSatPolicy(), CFG)
    info = res.kernel_infos[0]
    assert info.trained_iterations > 0
    assert info.training_cycles > 0
    assert info.estimates is not None
    assert info.policy_name == "sat-two-phase"


# -- the §9 policies run the paper's pipeline --------------------------------

@pytest.mark.parametrize("name", ["sat-two-phase", "bat-calibrated-4"])
def test_extension_policies_run_the_one_pipeline_on_an_smt_machine(name):
    """Clamp on thread slots, training samples and one decision in the
    trace, decision metrics published — as for the paper's modes."""
    config = MachineConfig.small().with_smt(2)
    slots = config.num_thread_slots
    assert slots == 2 * config.num_cores
    recorder, tap = TraceRecorder(), DecisionTap()
    machine = Machine(config, observers=[recorder, tap])
    reset_default_registry()

    # No critical section, no bus traffic: every estimate hits the clamp.
    app = build_synthetic(iterations=256, compute_instr=2_000)
    result = run_application(app, POLICIES[name](), machine=machine)

    (info,) = result.kernel_infos
    (decision,) = tap.decisions
    assert decision.num_slots == slots
    assert info.estimates.p_fdt == slots
    assert info.threads == slots

    trace = recorder.data
    (record,) = trace.decisions
    assert record is decision  # the tracer appends the record as-is
    assert record.policy_name == name
    assert record.num_slots == slots
    assert record.chosen_threads == info.threads
    training_marks = [m for m in trace.marks if m.kind == "training"]
    assert len(training_marks) == len(record.samples) > 0
    # The probe slice is charged to training on top of the serial loop.
    assert info.trained_iterations > record.trained_iterations

    decisions = default_registry()._instruments.get("repro_fdt_decisions_total")
    assert decisions is not None
    assert decisions.value(decision.mode) == 1


@pytest.mark.parametrize("name, mode", [("sat-two-phase", FdtMode.SAT),
                                        ("bat-calibrated-4", FdtMode.BAT)])
def test_extension_policies_never_probe_past_the_last_iteration(name, mode):
    """Training a one-iteration loop consumes it: nothing is left to
    probe with, so the run is the paper mode's, cycle for cycle."""
    plain = run_application(build_synthetic(cs_fraction=0.2, bus_lines=4,
                                            iterations=1),
                            FdtPolicy(mode), CFG)
    probed = run_application(build_synthetic(cs_fraction=0.2, bus_lines=4,
                                             iterations=1),
                             POLICIES[name](), CFG)
    assert probed.kernel_infos[0].trained_iterations == 1
    assert probed.cycles == plain.cycles
    assert probed.threads_used == plain.threads_used
