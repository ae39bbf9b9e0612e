"""Machine introspection: dump every simulator counter as plain data.

``machine_report(machine)`` returns a nested dict (JSON-serializable) of
every statistic the simulator keeps — cache hit rates per level, DRAM
row-buffer outcomes, bus occupancy, coherence traffic, lock/barrier
contention, per-core retirement — so a run can be archived, diffed, or
plotted without reaching into simulator internals.
"""

from __future__ import annotations

import json
from typing import Any

from repro.sim.cache import CacheStats, SetAssocCache
from repro.sim.core import Core
from repro.sim.machine import Machine


def _cache_stats(cache: SetAssocCache | None) -> dict[str, Any]:
    """One cache's row; ``None`` (a core never built) is its zero stats."""
    s = cache.stats if cache is not None else CacheStats()
    return {
        "hits": s.hits,
        "misses": s.misses,
        "evictions": s.evictions,
        "invalidations": s.invalidations,
        "miss_rate": round(s.miss_rate, 6),
        "resident_lines": len(cache) if cache is not None else 0,
    }


def _per_core(built: list, num_cores: int) -> list:
    """``built`` (cores ``0 .. len - 1``) padded with ``None`` to one
    entry per core: the report lists every core, built or not."""
    return [*built, *[None] * (num_cores - len(built))]


def _core_stats(core_id: int, core: Core | None) -> dict[str, Any]:
    """One core's row; ``None`` (a core never built) is its zero stats."""
    if core is None:
        return {"core": core_id, "retired_instructions": 0,
                "spin_cycles": 0}
    return {
        "core": core_id,
        "retired_instructions": core.retired_instructions,
        "spin_cycles": core.spin_cycles,
    }


def machine_report(machine: Machine) -> dict[str, Any]:
    """Snapshot every subsystem's counters as a nested dict."""
    mem = machine.memsys
    dram = mem.dram.stats
    bus = mem.bus.stats
    ring = machine.ring.stats
    coh = mem.directory.stats
    locks = machine.locks.stats
    barriers = machine.barriers.stats
    now = machine.now

    num_cores = machine.config.num_cores
    l1 = [_cache_stats(c) for c in _per_core(mem.l1s, num_cores)]
    l2 = [_cache_stats(c) for c in _per_core(mem.l2s, num_cores)]

    def _sum(dicts: list[dict[str, Any]], key: str) -> int:
        return sum(d[key] for d in dicts)

    report: dict[str, Any] = {
        "cycles": now,
        "config": {
            "num_cores": machine.config.num_cores,
            "smt_threads": machine.config.smt_threads,
            "l3_bytes": machine.config.l3_bytes,
            "bus_cycles_per_line": machine.config.bus_cycles_per_line,
        },
        "cores": [_core_stats(i, c) for i, c in
                  enumerate(_per_core(machine.cores, num_cores))],
        "l1": {"total_hits": _sum(l1, "hits"),
               "total_misses": _sum(l1, "misses"),
               "per_core": l1},
        "l2": {"total_hits": _sum(l2, "hits"),
               "total_misses": _sum(l2, "misses"),
               "writebacks": mem.stats.l2_writebacks,
               "per_core": l2},
        "l3": {
            "hits": mem.l3.hits,
            "misses": mem.l3.misses,
            "miss_rate": round(mem.l3.miss_rate(), 6),
            "recalls": mem.stats.recalls,
            "writebacks_to_dram": mem.stats.l3_writebacks_to_dram,
            "per_bank": [_cache_stats(b.cache) for b in mem.l3.banks],
        },
        "coherence": {
            "gets": coh.gets,
            "getm": coh.getm,
            "upgrades": coh.upgrades,
            "invalidations_sent": coh.invalidations_sent,
            "cache_to_cache": coh.cache_to_cache,
            "writebacks_to_l3": coh.writebacks_to_l3,
        },
        "ring": {
            "messages": ring.messages,
            "mean_hops": round(ring.mean_hops, 4),
        },
        "bus": {
            "transfers": bus.transfers,
            "busy_cycles": bus.busy_cycles,
            "utilization": round(bus.utilization(now), 6) if now else 0.0,
            "mean_wait": (round(bus.total_wait_cycles / bus.transfers, 2)
                          if bus.transfers else 0.0),
        },
        "dram": {
            "accesses": dram.accesses,
            "row_hits": dram.row_hits,
            "row_conflicts": dram.row_conflicts,
            "row_closed": dram.row_closed,
            "row_hit_rate": round(dram.row_hit_rate, 6),
            "mean_queue_cycles": (round(dram.total_queue_cycles
                                        / dram.accesses, 2)
                                  if dram.accesses else 0.0),
        },
        "locks": {
            "acquisitions": locks.acquisitions,
            "contended": locks.contended_acquisitions,
            "mean_hold": (round(locks.total_hold_cycles
                                / locks.acquisitions, 2)
                          if locks.acquisitions else 0.0),
            "mean_wait": (round(locks.total_wait_cycles
                                / locks.contended_acquisitions, 2)
                          if locks.contended_acquisitions else 0.0),
        },
        "barriers": {
            "episodes": barriers.episodes,
            "total_wait_cycles": barriers.total_wait_cycles,
        },
        "memory_ops": {
            "loads": mem.stats.loads,
            "stores": mem.stats.stores,
        },
    }
    return report


def machine_report_json(machine: Machine, indent: int = 2) -> str:
    """The report as a JSON string (for archiving next to results)."""
    return json.dumps(machine_report(machine), indent=indent)
