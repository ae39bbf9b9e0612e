"""Static profile pass: critical-section and memory-footprint facts.

This pass produces *data*, not findings: a JSON-ready profile of each
analyzed team (where the instructions are, how big the critical
sections are, what the working set looks like) and — from the
team-of-one summary — the SAT/BAT priors
(:mod:`repro.fdt.priors`) that ``repro check`` reports
alongside the measured training estimates.
"""

from __future__ import annotations

from typing import Any

from repro.check.static.summary import TeamSummary
from repro.fdt.priors import StaticPriors, derive_priors
from repro.sim.config import MachineConfig


def profile_team(team: TeamSummary, config: MachineConfig) -> dict[str, Any]:
    """JSON-ready profile of one team summary.

    Covers the critical-section profile (regions, instructions and
    memory ops under locks, per-lock totals) and the memory footprint
    (per-thread and union working sets, estimated shared lines, bytes
    per instruction).
    """
    regions = [r for t in team.threads for r in t.lock_regions]
    per_lock: dict[int, dict[str, int]] = {}
    for r in regions:
        agg = per_lock.setdefault(r.lock_id, {
            "regions": 0, "instructions": 0, "mem_ops": 0, "est_cycles": 0})
        agg["regions"] += 1
        agg["instructions"] += r.instructions
        agg["mem_ops"] += r.mem_ops
        agg["est_cycles"] += r.est_cycles

    union_lines: set[int] = set()
    for t in team.threads:
        union_lines.update(t.line_accesses)
    total_instructions = team.total_instructions
    footprint_bytes = len(union_lines) * config.line_bytes

    cs_instructions = sum(t.cs_instructions for t in team.threads)
    est_cycles = sum(t.est_cycles for t in team.threads)
    est_cs_cycles = sum(t.est_cs_cycles for t in team.threads)

    return {
        "kernel": team.kernel,
        "num_threads": team.num_threads,
        "truncated": team.truncated,
        "instructions": total_instructions,
        "est_cycles": est_cycles,
        "critical_sections": {
            "regions": len(regions),
            "locks": {str(lock): agg
                      for lock, agg in sorted(per_lock.items())},
            "instructions": cs_instructions,
            "instruction_fraction": (cs_instructions / total_instructions
                                     if total_instructions else 0.0),
            "est_cycles": est_cs_cycles,
            "est_cycle_fraction": (est_cs_cycles / est_cycles
                                   if est_cycles else 0.0),
        },
        "footprint": {
            "lines": len(union_lines),
            "bytes": footprint_bytes,
            "shared_lines": team.shared_lines(),
            "bytes_per_instruction": (footprint_bytes / total_instructions
                                      if total_instructions else 0.0),
            "per_thread_lines": [t.distinct_lines for t in team.threads],
        },
        "threads": [t.to_dict() for t in team.threads],
    }


def team_priors(team: TeamSummary, iterations: int,
                config: MachineConfig) -> StaticPriors:
    """SAT/BAT priors from a team-of-one summary.

    The training loop the priors stand in for is single-threaded, so the
    caller passes the ``num_threads == 1`` analysis; summing a wider
    team would double-count the per-iteration work.
    """
    if team.num_threads != 1:
        raise ValueError(
            f"priors need the team-of-one summary, got {team.num_threads}")
    t = team.threads[0]
    return derive_priors(
        kernel_name=team.kernel,
        iterations=iterations,
        est_cycles=t.est_cycles,
        est_cs_cycles=t.est_cs_cycles,
        est_bus_busy=t.est_bus_busy,
        instructions=t.instructions,
        footprint_lines=t.distinct_lines,
        config=config,
    )
