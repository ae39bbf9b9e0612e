"""Machine configuration (Table 1 of the paper).

:class:`MachineConfig` is a frozen dataclass so a config can be hashed,
compared, and safely shared between sweep points.  Use
:meth:`MachineConfig.asplos08_baseline` for the paper's simulated machine
and :meth:`MachineConfig.small`, :meth:`MachineConfig.baseline_with` and
:meth:`MachineConfig.with_bandwidth` to derive the variants the paper
evaluates (half/double bus bandwidth, different core counts).  The
address map (:mod:`repro.sim.addrmap`) checks the cache and DRAM
geometry.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigError
from repro.sim.addrmap import AddressMap


#: The latency, occupancy and overhead fields, in cycles.
_DELAYS = ("l1_latency", "l2_latency", "l3_latency", "ring_hop_latency",
           "ring_link_occupancy", "bus_latency", "dram_row_hit_latency",
           "dram_row_conflict_latency", "dram_closed_row_latency", "thread_spawn_cycles",
           "thread_join_cycles", "lock_handoff_base")


@dataclass(frozen=True, slots=True)
class MachineConfig:
    """Parameters of the simulated CMP.

    Defaults reproduce Table 1: a 32-core CMP, in-order 2-wide cores
    (its pipeline depth and branch predictor are not modelled), 8-KB
    write-through private L1, 64-KB 4-way inclusive private L2, 8-MB
    8-way 8-bank shared L3 (20-cycle access), a bi-directional ring with
    1-cycle hops, a 4:1 cpu/bus-ratio 64-bit split-transaction off-chip
    bus (40-cycle latency, one 64-byte line per 32 cpu cycles at peak),
    and 32 DRAM banks at roughly 200 cycles per access with open-page
    row buffers.
    """

    # -- chip --------------------------------------------------------------
    num_cores: int = 32
    issue_width: int = 2
    #: Hardware thread contexts per core.  Table 1's machine has one
    #: ("we assumed that only one thread executes per core"); values
    #: above one model the SMT extension of the paper's Section 9.
    smt_threads: int = 1
    #: Thread placement on SMT machines: "scatter" fills one context per
    #: core before doubling up (best for compute-bound teams), "compact"
    #: fills a core's contexts before moving on (best when co-scheduled
    #: threads share data).
    smt_placement: str = "scatter"

    # -- caches --------------------------------------------------------------
    line_bytes: int = 64
    l1_bytes: int = 8 * 1024
    l1_assoc: int = 2
    l1_latency: int = 1
    l2_bytes: int = 64 * 1024
    l2_assoc: int = 4
    l2_latency: int = 6
    l3_bytes: int = 8 * 1024 * 1024
    l3_assoc: int = 8
    l3_banks: int = 8
    l3_latency: int = 20

    # -- interconnect ---------------------------------------------------------
    ring_hop_latency: int = 1
    #: Cycles each directed ring link is occupied per message; 0 models
    #: the paper's 64-byte-wide ring as latency-only (its Section 9
    #: leaves interconnect contention to future work), larger values
    #: model narrower rings where coherence traffic contends.
    ring_link_occupancy: int = 0

    # -- off-chip bus ----------------------------------------------------------
    # 64-bit wide at a 4:1 cpu/bus clock ratio: transferring a 64-byte line
    # takes 8 bus cycles = 32 cpu cycles of data-bus occupancy.
    bus_width_bytes: int = 8
    cpu_bus_ratio: int = 4
    bus_latency: int = 40

    # -- DRAM --------------------------------------------------------------------
    dram_banks: int = 32
    dram_row_bytes: int = 4096
    #: Address-interleaving granule: consecutive lines stay in one bank
    #: for this many lines before moving to the next bank.  Sub-row
    #: granules amortize a row conflict over the whole granule visit,
    #: which is what keeps concurrent streams from thrashing row buffers.
    dram_granule_lines: int = 16
    #: Open-page (row-buffer) policy; False precharges after every
    #: access (closed-page), an ablation of Table 1's row-buffer model.
    dram_open_page: bool = True
    dram_row_hit_latency: int = 85
    dram_row_conflict_latency: int = 110
    dram_closed_row_latency: int = 96

    # -- runtime overheads ----------------------------------------------------------
    thread_spawn_cycles: int = 300
    thread_join_cycles: int = 100
    lock_handoff_base: int = 20
    #: Lock grant order: "fifo" (queue, the default) or "lifo" (an
    #: unfair stack — the ablation of the serialization model).
    lock_grant_order: str = "fifo"

    def __post_init__(self) -> None:
        if self.num_cores < 1:
            raise ConfigError("num_cores must be >= 1")
        if self.issue_width < 1:
            raise ConfigError("issue_width must be >= 1")
        # The cache and DRAM geometry: refused unless its masks can index it.
        AddressMap.of(self)
        # A negative delay would end an access, or an event, before it starts.
        negative = [name for name in _DELAYS if getattr(self, name) < 0]
        if negative:
            raise ConfigError(f"{', '.join(negative)} must be >= 0")
        if self.bus_width_bytes < 1 or self.cpu_bus_ratio < 1:
            raise ConfigError("bus parameters must be positive")
        if self.lock_grant_order not in ("fifo", "lifo"):
            raise ConfigError("lock_grant_order must be 'fifo' or 'lifo'")
        if self.smt_threads < 1:
            raise ConfigError("smt_threads must be >= 1")
        if self.smt_placement not in ("scatter", "compact"):
            raise ConfigError("smt_placement must be 'scatter' or 'compact'")

    # -- derived quantities -------------------------------------------------

    @property
    def bus_cycles_per_line(self) -> int:
        """CPU cycles the data bus is occupied transferring one cache line.

        For the baseline this is 64 B / 8 B-per-bus-cycle * 4 cpu-cycles =
        32 cpu cycles, matching the paper's "one cache line every 32 cycles
        at peak bandwidth".
        """
        bus_cycles = -(-self.line_bytes // self.bus_width_bytes)  # ceil
        return bus_cycles * self.cpu_bus_ratio

    @property
    def num_thread_slots(self) -> int:
        """Hardware thread slots on the chip (cores x SMT contexts)."""
        return self.num_cores * self.smt_threads

    # -- named configurations --------------------------------------------------

    @classmethod
    def asplos08_baseline(cls) -> "MachineConfig":
        """The paper's simulated machine (Table 1)."""
        return cls()

    @classmethod
    def small(cls, num_cores: int = 8) -> "MachineConfig":
        """A scaled-down machine for fast unit tests."""
        return cls(
            num_cores=num_cores,
            l1_bytes=1024,
            l2_bytes=4 * 1024,
            l3_bytes=64 * 1024,
            dram_banks=8,
        )

    @classmethod
    def baseline_with(cls, cores: int | None = None,
                      bandwidth: float | None = None,
                      smt: int | None = None) -> "MachineConfig":
        """Table 1 plus the three overrides every front end offers
        (``--cores/--bandwidth/--smt``, the ``machine`` object of ``/v1``);
        a bool, or a float for either count, is a :class:`ConfigError`."""
        for name, value, kind in (("cores", cores, int), ("smt", smt, int),
                                  ("bandwidth", bandwidth, float)):
            if value is not None and (isinstance(value, bool)
                                      or not isinstance(value, (int, kind))):
                raise ConfigError(f"{name!r} must be {kind.__name__}, got {value!r}")
        knobs = {"num_cores": cores, "smt_threads": smt}
        config = cls(**{k: v for k, v in knobs.items() if v is not None})
        return config if bandwidth is None else config.with_bandwidth(bandwidth)

    def with_bandwidth(self, factor: float) -> "MachineConfig":
        """Return a config with the off-chip bus bandwidth scaled by ``factor``.

        Implemented by scaling the cpu/bus clock ratio: ``factor=2`` halves
        the per-line bus occupancy (double bandwidth), ``factor=0.5``
        doubles it.  This is the knob Figure 13 of the paper turns.
        """
        if factor <= 0:
            raise ConfigError("bandwidth factor must be positive")
        new_ratio = max(1, round(self.cpu_bus_ratio / factor))
        return replace(self, cpu_bus_ratio=new_ratio)

    def with_smt(self, smt_threads: int) -> "MachineConfig":
        """Return a config with SMT contexts per core (Section 9)."""
        return replace(self, smt_threads=smt_threads)
