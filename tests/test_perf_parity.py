"""Fast paths vs ``REPRO_SLOW_PATHS=1`` reference paths: bit-identical.

The simulator's hot-path optimizations (Compute-run coalescing, the
event queue's FIFO tail, the inlined L1/L2 load walk and miss path in
the memory system) are pure speedups: they must not change a single
simulated cycle or counter.  ``REPRO_SLOW_PATHS=1`` forces every
component back onto its straightforward reference code; these tests run
the same workloads both ways and require the results to match exactly —
not approximately, bit for bit.  One known exception is pinned below:
Compute coalescing is exact only up to same-cycle cross-core tie order,
which shows on Transpose and nowhere else in the roster.

The environment variable is read once at *construction* time by each
component, so flipping it between machine builds inside one process is
sufficient; no subprocesses needed.
"""

from __future__ import annotations

import pytest

from repro.fdt.policies import FdtMode, FdtPolicy, StaticPolicy
from repro.fdt.runner import run_application
from repro.isa.ops import Branch, Compute, Load, Lock, Store, Unlock
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine
from repro.workloads import get


def _app_fingerprint(workload: str, policy_name: str) -> dict[str, int | str]:
    """Run one workload/policy pair; return every aggregate counter."""
    app = get(workload).build(0.05)
    policy = (StaticPolicy(4) if policy_name == "static"
              else FdtPolicy(FdtMode.COMBINED))
    run = run_application(app, policy, MachineConfig.small())
    result = run.result
    return {
        "cycles": run.cycles,
        "threads_used": str(run.threads_used),
        "retired": result.retired_instructions,
        "busy_core_cycles": result.busy_core_cycles,
        "spin_core_cycles": result.spin_core_cycles,
        "bus_busy_cycles": result.bus_busy_cycles,
        "bus_transfers": result.bus_transfers,
        "l3_misses": result.l3_misses,
        "l3_accesses": result.l3_accesses,
        "lock_acquisitions": result.lock_acquisitions,
    }


@pytest.mark.parametrize("policy_name", ["static", "fdt"])
@pytest.mark.parametrize("workload", ["EP", "PageMine", "ED"])
def test_workloads_identical_fast_vs_slow(monkeypatch, workload,
                                          policy_name):
    monkeypatch.delenv("REPRO_SLOW_PATHS", raising=False)
    fast = _app_fingerprint(workload, policy_name)
    monkeypatch.setenv("REPRO_SLOW_PATHS", "1")
    slow = _app_fingerprint(workload, policy_name)
    assert fast == slow


def _transpose_cycles() -> int:
    app = get("Transpose").build(0.05)
    config = MachineConfig.asplos08_baseline()
    return run_application(app, StaticPolicy(32), config).cycles


def test_engine_and_memsys_twins_identical_on_transpose(monkeypatch):
    """With Compute coalescing held on, the pure-heap engine and the
    reference memory walk reproduce the fast paths on the one workload
    where the full flag diverges (next test)."""
    monkeypatch.delenv("REPRO_SLOW_PATHS", raising=False)
    fast = _transpose_cycles()
    monkeypatch.setenv("REPRO_SLOW_PATHS", "1")
    monkeypatch.setattr("repro.sim.core.slow_paths_enabled", lambda: False)
    assert _transpose_cycles() == fast == 131790


@pytest.mark.xfail(strict=True, reason=(
    "Compute coalescing is exact only up to same-cycle cross-core tie "
    "order: stepping op by op gives 131792 cycles, coalesced 131790"))
def test_full_slow_paths_flag_identical_on_transpose(monkeypatch):
    monkeypatch.delenv("REPRO_SLOW_PATHS", raising=False)
    fast = _transpose_cycles()
    monkeypatch.setenv("REPRO_SLOW_PATHS", "1")
    assert _transpose_cycles() == fast


def _mixed_factory(tid: int, team: int):
    """Synthetic thread touching every op the fast paths specialize.

    Alternating Compute/Load streams exercise the coalescer's pull-ahead
    and pending-op dispatch; strided loads and stores walk L1 hits, L2
    hits, clean and dirty misses, cross-core sharing and invalidations;
    the lock section adds spin/wake event reordering through the queue's
    heap (wakeups land out of FIFO order).
    """
    base = tid * 1 << 18
    shared = 1 << 24
    for i in range(40):
        yield Compute(37)
        yield Compute(0)
        yield Compute(5)
        yield Load(base + i * 4096)
        yield Store(base + i * 4096 + 64)
        yield Load(shared + (i % 7) * 64)
        yield Branch(pc=base + i, taken=(i * tid) % 3 == 0)
        if i % 5 == 0:
            yield Lock(0)
            yield Load(shared)
            yield Compute(11)
            yield Store(shared)
            yield Unlock(0)
        yield Store(shared + ((i + tid) % 11) * 64)


def _machine_fingerprint() -> dict[str, object]:
    """Run the synthetic region; return deep per-component counters."""
    machine = Machine(MachineConfig.small())
    region = machine.run_parallel([_mixed_factory] * 4)
    memsys = machine.memsys
    return {
        "now": machine.now,
        "region": (region.start_cycle, region.end_cycle),
        "retired_per_core": [c.retired_instructions for c in machine.cores],
        "counter_file": list(machine.counters._retired),
        "spin_per_core": [c.spin_cycles for c in machine.cores],
        "l1": [(c.stats.hits, c.stats.misses, c.stats.evictions,
                c.stats.invalidations) for c in memsys.l1s],
        "l2": [(c.stats.hits, c.stats.misses, c.stats.evictions,
                c.stats.invalidations) for c in memsys.l2s],
        "l3": [(b.cache.stats.hits, b.cache.stats.misses,
                b.cache.stats.evictions) for b in memsys.l3.banks],
        "directory": (memsys.directory.stats.gets,
                      memsys.directory.stats.getm,
                      memsys.directory.stats.upgrades,
                      memsys.directory.stats.invalidations_sent,
                      memsys.directory.stats.cache_to_cache,
                      memsys.directory.stats.writebacks_to_l3),
        "bus": (memsys.bus.stats.transfers, memsys.bus.stats.busy_cycles,
                memsys.bus.stats.total_wait_cycles),
        "dram": (memsys.dram.stats.accesses, memsys.dram.stats.row_hits),
        "ring": (memsys.ring.stats.messages, memsys.ring.stats.total_hops),
        "memsys": (memsys.stats.loads, memsys.stats.stores,
                   memsys.stats.l2_writebacks,
                   memsys.stats.l3_writebacks_to_dram,
                   memsys.stats.recalls),
        "locks": (machine.locks.stats.acquisitions,
                  machine.locks.stats.contended_acquisitions),
    }


def test_per_component_counters_identical_fast_vs_slow(monkeypatch):
    monkeypatch.delenv("REPRO_SLOW_PATHS", raising=False)
    fast = _machine_fingerprint()
    monkeypatch.setenv("REPRO_SLOW_PATHS", "1")
    slow = _machine_fingerprint()
    assert fast == slow


def test_slow_paths_flag_actually_selects_reference_code(monkeypatch):
    """Guard against the reference mode silently rotting: the flag must
    reach each component's constructor."""
    monkeypatch.setenv("REPRO_SLOW_PATHS", "1")
    machine = Machine(MachineConfig.small())
    assert not machine.events._fast
    assert not machine.memsys._fast
    assert not machine.cores[0]._coalesce
    monkeypatch.delenv("REPRO_SLOW_PATHS")
    machine = Machine(MachineConfig.small())
    assert machine.events._fast
    assert machine.memsys._fast
    assert machine.cores[0]._coalesce
