"""The paper's tables and figures as data: the ``FIGURES`` registry.

Every entry is a :class:`~repro.experiments.panels.Figure` — which
panels to run (workload x machine x policy x grid) and which columns to
print — over the one runner in :mod:`repro.experiments.panels`.  What
is genuinely particular to one figure (Fig. 4's saturation knee,
Fig. 15's oracle, the crossover's binding limiter, the model-only
worked examples) is a small function beside its entry.  The same
entries back ``python -m repro figure <name>``, the benchmark harness
and ad-hoc exploration::

    from repro.experiments import FIGURES
    print(FIGURES["fig8"].run(scale=0.25, workloads=("EP",)).format())
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Sequence

from repro.analysis.report import ascii_bars, ascii_series, ascii_table
from repro.analysis.sweep import COARSE_GRID, SweepResult
from repro.experiments.panels import Figure, FigureResult, Panel, PanelSpec
from repro.jobs import PolicySpec, WorkloadRef
from repro.models.bat_model import BatModel
from repro.models.combined import CombinedModel
from repro.models.sat_model import SatModel
from repro.sim.config import MachineConfig
from repro.workloads import all_specs, get

CS_WORKLOADS = ("PageMine", "ISort", "GSearch", "EP")
BW_WORKLOADS = ("ED", "convert", "Transpose", "MTwister")
#: Table 2 order, as plotted in Figures 14 and 15.
ALL_WORKLOADS = CS_WORKLOADS + BW_WORKLOADS + ("BT", "MG", "BScholes", "SConv")

#: Per-workload scale factors: MTwister must stay near full size so its
#: second kernel misses the L3 (the property the paper relies on).
DEFAULT_SCALES = {"MTwister": 1.0}

#: Every name ``python -m repro figure`` accepts, filled in below.
FIGURES: dict[str, Figure] = {}


_label = attrgetter("label")
_best_static = attrgetter("best_static_threads")
_vs_best = attrgetter("vs_best")
_norm_time = attrgetter("norm_time")
_norm_power = attrgetter("norm_power")


def _threads(p: Panel) -> str:
    """Team size per kernel, written the way the paper writes 32/12."""
    return "/".join(map(str, p.threads))


def _roster(policy: PolicySpec | None, workloads: Sequence[str],
            scale: float, grid: Sequence[int] | None = COARSE_GRID,
            config: MachineConfig | None = None,
            baseline: PolicySpec | None = None
            ) -> Callable[..., list[PanelSpec]]:
    """Panel specs for "these Table 2 workloads under this policy"."""
    def specs(scale: float = scale,
              workloads: Sequence[str] = workloads,
              thread_counts: Sequence[int] | None = grid,
              config: MachineConfig | None = config,
              scales: dict[str, float] | None = None) -> list[PanelSpec]:
        per_workload = {**DEFAULT_SCALES, **(scales or {})}
        return [PanelSpec(name,
                          WorkloadRef(name=name,
                                      scale=per_workload.get(name, scale)),
                          policy, thread_counts, config, baseline)
                for name in workloads]
    return specs


# -- Tables 1 and 2 -----------------------------------------------------------

def table1_rows(config: MachineConfig | None = None) -> list[tuple[str, str]]:
    c = config or MachineConfig.asplos08_baseline()
    return [
        ("System", f"{c.num_cores}-core CMP with shared L3 cache"),
        ("Core", f"in-order, {c.issue_width}-wide, "
                 f"{c.pipeline_depth}-stage pipeline, "
                 f"{c.gshare_bytes // 1024}-KB gshare"),
        ("L1", f"{c.l1_bytes // 1024} KB write-through private, "
               f"{c.l1_latency}-cycle"),
        ("L2", f"{c.l2_bytes // 1024} KB, {c.l2_assoc}-way, inclusive "
               f"private, {c.l2_latency}-cycle"),
        ("Interconnect", f"bi-directional ring, "
                         f"{c.ring_hop_latency}-cycle hop"),
        ("Coherence", "distributed directory-based MESI"),
        ("L3", f"{c.l3_bytes // (1024 * 1024)} MB, {c.l3_assoc}-way, "
               f"{c.l3_banks} banks, {c.l3_latency}-cycle, "
               f"{c.line_bytes}-byte lines"),
        ("Data bus", f"{c.cpu_bus_ratio}:1 cpu/bus ratio, "
                     f"{c.bus_width_bytes * 8}-bit, split-transaction, "
                     f"{c.bus_latency}-cycle latency, one line per "
                     f"{c.bus_cycles_per_line} cycles at peak"),
        ("Memory", f"{c.dram_banks} DRAM banks, "
                   f"row hit/closed/conflict "
                   f"{c.dram_row_hit_latency}/{c.dram_closed_row_latency}/"
                   f"{c.dram_row_conflict_latency} cycles, "
                   f"open-page row buffers"),
    ]


def table2_rows() -> list[tuple[str, ...]]:
    return [(s.category.value, s.name, s.description, s.paper_input,
             s.repro_input) for s in all_specs()]


def table1_text(config: MachineConfig | None = None) -> str:
    return ascii_table(("component", "configuration"), table1_rows(config))


FIGURES["table1"] = Figure("Table 1: configuration of the simulated machine",
                           footer=lambda _: table1_text())

FIGURES["table2"] = Figure(
    "Table 2: simulated workloads",
    footer=lambda _: ascii_table(("type", "workload", "description",
                                  "paper input", "repro input"),
                                 table2_rows()))


# -- Figure 2: PageMine normalized execution time vs 1-32 threads -------------
# Paper shape: execution time falls until ~4 threads, turns upward beyond
# ~6, and by 32 threads is worse than single-threaded — the critical
# section has taken over.

def _time_chart(sweep: SweepResult) -> str:
    return ascii_series(list(sweep.thread_counts), sweep.normalized_curve())


def _fig2_footer(result: FigureResult) -> str:
    sweep = result.panels[0].sweep
    return (f"{_time_chart(sweep)}\n"
            f"best thread count: {sweep.best_threads} "
            f"(paper: minimum near 4, rising beyond 6)")


FIGURES["fig2"] = Figure(
    "Figure 2: PageMine normalized execution time vs threads",
    _roster(None, ("PageMine",), scale=0.5),
    footer=_fig2_footer)


# -- Figure 4: ED normalized execution time (a) and bus utilization (b) -------
# Paper shape: execution time drops as 1/P until ~8 threads then goes
# flat; bus utilization climbs linearly to 100 % at the same knee.

def bus_saturation_threads(sweep: SweepResult) -> int:
    """First thread count at which bus utilization reaches ~100 %."""
    for p in sweep.points:
        if p.bus_utilization >= 0.97:
            return p.threads
    return sweep.points[-1].threads


def _fig4_footer(result: FigureResult) -> str:
    sweep = result.panels[0].sweep
    b = ascii_series(list(sweep.thread_counts), sweep.utilization_curve(),
                     title="Figure 4b: ED bus utilization")
    return (f"{_time_chart(sweep)}\n\n{b}\n"
            f"bus saturates at {bus_saturation_threads(sweep)} threads "
            f"(paper: 8)")


FIGURES["fig4"] = Figure(
    "Figure 4a: ED normalized execution time",
    _roster(None, ("ED",), scale=0.25),
    footer=_fig4_footer)


# -- Figures 6 and 11: the paper's two worked examples ------------------------

EXAMPLE_THREADS = (1, 2, 4, 8)


def fig6_example(t_nocs: float = 8.0, t_cs: float = 2.0
                 ) -> tuple[SatModel, tuple[float, ...]]:
    """Figure 6's model and its Eq. 1 times at P = 1, 2, 4, 8.

    A program spends 20 % of single-threaded time in the critical
    section (2 of 10 units).  Eq. 1 gives exactly the paper's numbers:
    10 units at P=1, 8 at P=2, back to 10 at P=4, and 17 at P=8 — with
    the optimum at P = sqrt(8/2) = 2.
    """
    model = SatModel(t_nocs=t_nocs, t_cs=t_cs)
    return model, tuple(model.execution_time(p) for p in EXAMPLE_THREADS)


def _fig6_footer(_: FigureResult) -> str:
    model, times = fig6_example()
    table = ascii_table(("threads", "execution time (units)"),
                        zip(EXAMPLE_THREADS, times), float_format="{:.0f}")
    return f"{table}\noptimum at P = {model.optimal_threads():.0f} threads"


def fig11_example(bu1: float = 0.25
                  ) -> tuple[BatModel, tuple[float, ...], tuple[float, ...]]:
    """Figure 11's model, its times and its bus utilizations.

    A data-parallel loop uses 25 % of the bus with one thread.  Eq. 4-6
    give the figure's numbers: utilization 25/50/100/100 % and execution
    time 1, 1/2, 1/4, 1/4 at P = 1, 2, 4, 8 — P=4 and P=8 take the same
    time.
    """
    model = BatModel(t1=1.0, bu1=bu1)
    return (model,
            tuple(model.execution_time(p) for p in EXAMPLE_THREADS),
            tuple(model.bus_utilization(p) for p in EXAMPLE_THREADS))


def _fig11_footer(_: FigureResult) -> str:
    model, times, utilizations = fig11_example()
    rows = [(p, t, f"{u * 100:.0f}%")
            for p, t, u in zip(EXAMPLE_THREADS, times, utilizations)]
    table = ascii_table(("threads", "normalized time", "bus utilization"),
                        rows)
    return (f"{table}\nsaturation at P_BW = "
            f"{model.saturation_threads():.0f} threads")


FIGURES["fig6"] = Figure("Figure 6: 20% critical section, Eq. 1",
                         footer=_fig6_footer)
FIGURES["fig11"] = Figure("Figure 11: BU_1 = 25%, Eq. 4-6",
                          footer=_fig11_footer)


# -- Figure 8: SAT on the four synchronization-limited workloads --------------
# The paper overlays the static sweep (1-32 threads) with the single SAT
# point, showing SAT lands within 1 % of the sweep minimum (best counts:
# ~4, 7, 5, 4; SAT picks 7, 7, 5, 5 on the paper's machine).

FIGURES["fig8"] = Figure(
    "Figure 8: SAT on synchronization-limited workloads",
    _roster(PolicySpec.sat(), CS_WORKLOADS, scale=0.5),
    (("workload", _label),
     ("best static T", _best_static),
     ("SAT T", _threads),
     ("SAT/min time", _vs_best),
     ("SAT power", attrgetter("adaptive.power"))))


# -- Figures 9 and 10: SAT's adaptation to the input set ----------------------
# Figure 9 plots the best thread count for PageMine as the page size
# varies from 1 KB to 25 KB — it grows roughly as the square root of the
# page size, so no static choice works across inputs.  Figure 10 overlays
# the 2.5 KB and 10 KB sweeps with SAT's picks, showing SAT tracks both.

#: The paper's page-size axis (bytes), 1 KB - 25 KB.
PAGE_SIZES = (1024, 2560, 5280, 10240, 16384, 25600)


def page_label(page_bytes: int) -> str:
    return f"{page_bytes / 1024:.1f} KB"


def _fig9_specs(page_sizes: Sequence[int] = PAGE_SIZES, scale: float = 0.5,
                thread_counts: Sequence[int] = COARSE_GRID,
                config: MachineConfig | None = None) -> list[PanelSpec]:
    return [PanelSpec(page_label(size),
                      WorkloadRef("PageMine", scale,
                                  params=(("page_bytes", size),)),
                      PolicySpec.sat(), thread_counts, config)
            for size in page_sizes]


FIGURES["fig9"] = Figure(
    "Figures 9/10: PageMine best thread count vs page size",
    _fig9_specs,
    (("page size", _label),
     ("best static T", _best_static),
     ("SAT T", _threads),
     ("SAT/min time", _vs_best)))


# -- Figure 12: BAT on the four bandwidth-limited workloads -------------------
# BAT stays within a few percent of the minimum execution time while
# cutting power by 78/47/75/31 % (ED/convert/Transpose/MTwister) versus
# 32 threads.  BAT's picks on the paper's machine: 7, 17, 8, and 32+12
# (per kernel).

FIGURES["fig12"] = Figure(
    "Figure 12: BAT on bandwidth-limited workloads",
    _roster(PolicySpec.bat(), BW_WORKLOADS, scale=0.25),
    (("workload", _label),
     ("BAT T", _threads),
     ("BAT/min time", _vs_best),
     ("power saved vs {baseline}T", lambda p: f"{p.power_saving * 100:.0f}%")))


# -- Figure 13: BAT's adaptation to the machine configuration -----------------
# convert is swept on two machines: one with half the baseline off-chip
# bandwidth and one with double.  The half-bandwidth curve saturates at
# ~8 threads while the double-bandwidth one keeps scaling to 32; a static
# choice tuned to either machine misbehaves on the other, and BAT tracks
# both (the paper reports picks of 8 and 32).

def _fig13_specs(factors: Sequence[float] = (0.5, 2.0), scale: float = 1.0,
                 thread_counts: Sequence[int] = COARSE_GRID
                 ) -> list[PanelSpec]:
    machine = MachineConfig.asplos08_baseline()
    return [PanelSpec(f"{factor:g}x", WorkloadRef(name="convert", scale=scale),
                      PolicySpec.bat(), thread_counts,
                      machine.with_bandwidth(factor))
            for factor in factors]


FIGURES["fig13"] = Figure(
    "Figure 13: BAT vs off-chip bandwidth (convert)",
    _fig13_specs,
    (("bus bandwidth", _label),
     ("BAT T", _threads),
     ("best static T", _best_static),
     ("BAT/min time", _vs_best)))


# -- Figure 14: SAT+BAT on all twelve workloads vs conventional threading -----
# Execution time and power normalized to one thread per core.  Paper
# outcome: large time *and* power cuts for the synchronization-limited
# group, large power cuts at flat time for the bandwidth-limited group,
# no change for the scalable group; geometric means of 0.83 (time) and
# 0.41 (power) — i.e. −17 % / −59 %.

def _fig14_footer(result: FigureResult) -> str:
    bars = ascii_bars([p.label for p in result.panels],
                      [p.norm_time for p in result.panels], max_value=1.2)
    return f"\nexecution time bars:\n{bars}"


FIGURES["fig14"] = Figure(
    "Figure 14: (SAT+BAT) normalized to {baseline} threads",
    _roster(PolicySpec.fdt(), ALL_WORKLOADS, scale=0.25, grid=None,
            baseline=PolicySpec.static()),
    (("workload", _label),
     ("class", lambda p: get(p.label).category.value.split("-")[0]),
     ("norm time", _norm_time),
     ("norm power", _norm_power),
     ("FDT threads", _threads)),
    summary=lambda r: ("gmean", "", r.gmean_time, r.gmean_power, ""),
    footer=_fig14_footer)


# -- Figure 15: SAT+BAT vs the best static (oracle) policy --------------------
# The oracle picks, per application, the fewest threads within 1 % of the
# minimum execution time found by an exhaustive offline sweep — but it
# must pick *one* number for the whole program.  Paper outcome: FDT
# matches the oracle everywhere except MTwister, where per-kernel
# retraining (32 then 12 threads) cuts power 31 % below the oracle's
# whole-program choice of 32.

def oracle_norm(p: Panel) -> tuple[int, float, float]:
    """The oracle's thread count, and its time and power over the
    baseline's — the sweep point it picked, normalized like FDT's run."""
    from repro.analysis.oracle import oracle_choice

    pick = oracle_choice(p.sweep).point
    return (pick.threads, pick.cycles / p.baseline.cycles,
            pick.power / p.baseline.power)


FIGURES["fig15"] = Figure(
    "Figure 15: (SAT+BAT) vs oracle, normalized to {baseline} threads",
    _roster(PolicySpec.fdt(), ALL_WORKLOADS, scale=0.25),
    (("workload", _label),
     ("oracle T", lambda p: oracle_norm(p)[0]),
     ("FDT T", _threads),
     ("FDT time", _norm_time),
     ("oracle time", lambda p: oracle_norm(p)[1]),
     ("FDT power", _norm_power),
     ("oracle power", lambda p: oracle_norm(p)[2])))


# -- Figures 16/17 (appendix): min(P_CS, P_BW) minimizes execution time -------
# The appendix argues both orderings: when P_CS < P_BW the curve turns up
# at P_CS (Figure 16); when P_BW < P_CS the parallel part stops shrinking
# at P_BW so the effective optimum shifts there (Figure 17).  The entry
# evaluates the combined model in both regimes and brute-force-checks
# that Eq. 7's choice is the argmin.

FIG16_CASES = (
    ("Figure 16 (P_CS < P_BW)",
     CombinedModel(sat=SatModel(t_nocs=100.0, t_cs=4.0),     # P_CS = 5
                   bat=BatModel(t1=100.0, bu1=0.05))),       # P_BW = 20
    ("Figure 17 (P_BW < P_CS)",
     CombinedModel(sat=SatModel(t_nocs=100.0, t_cs=0.25),    # P_CS = 20
                   bat=BatModel(t1=100.0, bu1=0.2))),        # P_BW = 5
)


def eq7_is_optimal(model: CombinedModel, max_threads: int = 32) -> bool:
    """Eq. 7's time must equal the brute-force minimum (rounding can
    pick a neighbouring integer with identical time)."""
    t_eq7 = model.execution_time(model.eq7_choice(max_threads))
    t_min = model.execution_time(model.minimizer(max_threads))
    return t_eq7 <= t_min * 1.05


def _fig16_body(model: CombinedModel, title: str = "") -> str:
    chart = ascii_series(list(range(1, 33)), model.curve(32), title=title)
    return (f"{chart}\n"
            f"Eq.7 -> {model.eq7_choice(32)}, brute force -> "
            f"{model.minimizer(32)}, optimal: {eq7_is_optimal(model)}")


def _fig16_title(label: str) -> str:
    return f"{label}: combined-model curve"


FIGURES["fig16"] = Figure(
    _fig16_title(FIG16_CASES[0][0]),
    footer=lambda _: (f"{_fig16_body(FIG16_CASES[0][1])}\n\n"
                      + _fig16_body(FIG16_CASES[1][1],
                                    _fig16_title(FIG16_CASES[1][0]))))


# -- Section 9 extension: FDT on a CMP with SMT-enabled cores -----------------
# "We assumed that only one thread executes per core ... However, the
# conclusions derived in this paper are also applicable to CMP systems
# with SMT-enabled cores."  Three representative kernels run on the
# baseline machine with 2 contexts per core (64 hardware thread slots):
#
# * the CS-limited kernel (PageMine) is still curtailed to a handful of
#   threads — running 64 is even worse than 32;
# * the BW-limited kernel (ED) still saturates at the same *thread* count,
#   so SMT lets BAT park the work on half as many cores;
# * the compute-bound kernel (BScholes) exposes a genuine SMT interaction
#   the paper's model misses: with 64 slots, BAT's ``BU_1 * slots >= 1``
#   test no longer rules out saturation, so it picks an intermediate
#   count — and an intermediate count on SMT is *imbalanced* (threads on
#   doubled-up cores run at half speed while single-context cores wait at
#   the join).  Eq. 6's "more threads never hurt" premise breaks when
#   slots have heterogeneous throughput; a per-core-aware chunking or a
#   restrict-to-core-multiples rule fixes it.  The entry reports the
#   effect rather than hiding it.

_SMT2 = MachineConfig.asplos08_baseline().with_smt(2)

FIGURES["smt"] = Figure(
    "Section 9 extension: FDT on SMT-2 ({baseline} thread slots), "
    "vs all-slots conventional",
    _roster(PolicySpec.fdt(), ("PageMine", "ED", "BScholes"), scale=0.25,
            grid=None, config=_SMT2,
            baseline=PolicySpec.static(_SMT2.num_thread_slots)),
    (("workload", _label),
     ("FDT threads", _threads),
     ("norm time", _norm_time),
     ("norm power", _norm_power)))


# -- Crossover study: Eq. 7 inside the simulator, not just the model ----------
# The appendix proves ``min(P_CS, P_BW)`` optimal for the *analytical*
# execution-time model.  This entry checks the claim end-to-end: a
# synthetic kernel's bandwidth demand is swept while its critical section
# is held fixed, moving the binding constraint from SAT's bound to BAT's,
# and at every point the combined FDT run is compared with the simulated
# static sweep's optimum.  The paper does not include this experiment; it
# closes the loop between Figures 16/17 and the simulator.

def bounds(p: Panel) -> tuple[int, int]:
    """``(P_CS, P_BW)`` as FDT estimated them for the panel's kernel."""
    estimates = p.adaptive.kernel_infos[0].estimates
    return estimates.p_cs, estimates.p_bw


def binding(p: Panel) -> str:
    """Which bound Eq. 7 selected."""
    p_cs, p_bw = bounds(p)
    if p_bw < p_cs:
        return "BAT"
    if p_cs < p_bw:
        return "SAT"
    return "tie"


def _crossover_specs(bus_lines: Sequence[int] = (0, 16, 64, 160),
                     cs_fraction: float = 0.02, iterations: int = 192,
                     thread_counts: Sequence[int] = (1, 2, 3, 4, 5, 6, 7, 8,
                                                     10, 12, 16, 24, 32),
                     config: MachineConfig | None = None) -> list[PanelSpec]:
    return [PanelSpec(str(lines),
                      WorkloadRef.synthetic(cs_fraction=cs_fraction,
                                            bus_lines=lines,
                                            iterations=iterations),
                      PolicySpec.fdt(), thread_counts, config)
            for lines in bus_lines]


FIGURES["crossover"] = Figure(
    "Crossover study: Eq. 7 with the binding limiter swept",
    _crossover_specs,
    (("bus lines/iter", _label),
     ("P_CS", lambda p: bounds(p)[0]),
     ("P_BW", lambda p: bounds(p)[1]),
     ("binding", binding),
     ("FDT T", _threads),
     ("best static T", _best_static),
     ("FDT/min time", _vs_best)))
