"""The address map: every index the memory walk takes from an address,
stated once, for each cache, L3 bank, DRAM bank and walk to read.  For
Table 1 (64-byte lines; 8-KB 2-way L1, 64-KB 4-way L2, 8-MB 8-way L3 in
8 banks; 16-line DRAM granules hashed over 32 banks)::

    addr      = | line                                            | offset (6) |
    line bit      ...  11  10   9   8   7   6   5   4   3   2   1   0
    L1 set                                     [---------------------]   & 63
    L2 set                             [-----------------------------]   & 255
    L3 set                 [-----------------------------------------]   & 2047
    L3 bank                                                [---------]   & 7
    DRAM row      ...--------------------------------]                   // 16
    DRAM bank     hash(DRAM row) & 31

The L3 set field holds the bank's three bits, so a bank reaches 256 of
its 2 048 sets and the 8-MB L3 holds 1 MB: a model defect pinned by the
strict xfail ``tests/test_memsys.py::test_every_l3_set_is_reachable``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.config import MachineConfig


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True, slots=True)
class AddressMap:
    """The fields the memory walk reads, as drawn above."""

    offset_bits: int
    l1_set_mask: int
    l2_set_mask: int
    l3_bank_mask: int
    l3_set_mask: int
    dram_granule: int
    dram_bank_mask: int

    @classmethod
    def of(cls, config: MachineConfig) -> AddressMap:
        """``config``'s map: the one check of its geometry (whole lines,
        power-of-two set and bank counts, a granule within a DRAM row)."""
        line = config.line_bytes
        if not _is_pow2(line):
            raise ConfigError("line_bytes must be a power of two")
        for name in ("l1_bytes", "l2_bytes", "l3_bytes", "dram_row_bytes"):
            if getattr(config, name) % line:
                raise ConfigError(f"{name} must be a multiple of line_bytes")
        for name in ("l3_banks", "dram_banks"):
            if not _is_pow2(getattr(config, name)):
                raise ConfigError(f"{name} must be a power of two")
        if config.l3_bytes % (config.l3_banks * line):
            raise ConfigError("l3_bytes must split into l3_banks banks of whole lines")
        set_masks: list[int] = []
        for name, size, assoc in (
                ("l1", config.l1_bytes, config.l1_assoc),
                ("l2", config.l2_bytes, config.l2_assoc),
                ("l3 bank", config.l3_bytes // config.l3_banks, config.l3_assoc)):
            if assoc < 1:
                raise ConfigError(f"{name}: assoc must be >= 1")
            lines = size // line
            if lines % assoc:
                raise ConfigError(f"{name}: line count {lines} not divisible by assoc {assoc}")
            if not _is_pow2(lines // assoc):
                raise ConfigError(f"{name}: set count {lines // assoc} is not a power of two")
            set_masks.append(lines // assoc - 1)
        row_lines = config.dram_row_bytes // line
        if not 1 <= config.dram_granule_lines <= row_lines:
            raise ConfigError(f"dram_granule_lines must be in a DRAM row: 1 .. {row_lines}")
        l1_mask, l2_mask, l3_mask = set_masks
        return cls(line.bit_length() - 1, l1_mask, l2_mask, config.l3_banks - 1,
                   l3_mask, config.dram_granule_lines, config.dram_banks - 1)
