"""Cycle-level CMP simulator.

This package is the substrate the paper's evaluation ran on: a 32-core CMP
with private L1/L2 caches, a shared banked L3, a bi-directional ring
interconnect, directory-based MESI coherence, a split-transaction off-chip
bus, and banked DRAM with row buffers (Table 1 of the paper).

The simulator is event-driven with resource-reservation timing: contended
resources (L3 banks, the off-chip bus, DRAM banks) keep a next-free-time
and a request walks the hierarchy reserving each resource in turn.  This
gives cycle-granularity contention — the off-chip bus genuinely saturates,
critical sections genuinely serialize through lock handoff and line
ping-pong — at a cost of one or two heap events per memory access, which
keeps multi-million-cycle simulations tractable in pure Python.
"""

from repro.sim.config import MachineConfig
from repro.sim.machine import Machine, RunResult
from repro.sim.observer import SimObserver

__all__ = ["MachineConfig", "Machine", "RunResult", "SimObserver"]
