"""The address map: Table 1's line-address split, and where it overlaps."""

from __future__ import annotations

from repro.sim.addrmap import AddressMap
from repro.sim.config import MachineConfig


def test_table1_fields():
    amap = AddressMap.of(MachineConfig.asplos08_baseline())
    assert amap == AddressMap(offset_bits=6, l1_set_mask=63, l2_set_mask=255,
                              l3_bank_mask=7, l3_set_mask=2047,
                              dram_granule=16, dram_bank_mask=31)


def test_only_the_l3_bank_and_set_share_bits():
    """Each field's address bits, from the map; a pair listed here must be
    independent, and today the L3 set index holds the bank's bits (the
    strict xfail ``test_memsys.py::test_every_l3_set_is_reachable``)."""
    amap = AddressMap.of(MachineConfig.asplos08_baseline())
    offset = amap.offset_bits
    bits = {
        "offset": (1 << offset) - 1,
        "l1.set": amap.l1_set_mask << offset,
        "l2.set": amap.l2_set_mask << offset,
        "l3.bank": amap.l3_bank_mask << offset,
        "l3.set": amap.l3_set_mask << offset,
        # A DRAM row is line // granule: the bits above the granule's.
        "dram.column": (amap.dram_granule - 1) << offset,
    }
    independent = [("offset", "l1.set"), ("offset", "l2.set"),
                   ("offset", "l3.bank"), ("offset", "l3.set"),
                   ("l3.bank", "l3.set"), ("offset", "dram.column")]
    assert [(a, b) for a, b in independent
            if bits[a] & bits[b]] == [("l3.bank", "l3.set")]
