"""Tables 1 and 2: machine configuration and workload roster."""

from __future__ import annotations

from conftest import run_once

from repro.experiments import FIGURES
from repro.experiments.figures import table1_rows, table2_rows
from repro.sim.config import MachineConfig


def test_table1_machine_configuration(benchmark, save_result):
    result = run_once(benchmark, FIGURES["table1"].run)
    save_result("table1_machine", result.format())
    cfg = MachineConfig.asplos08_baseline()
    assert table1_rows() == table1_rows(cfg)
    assert cfg.num_cores == 32
    assert cfg.bus_cycles_per_line == 32  # one line per 32 cycles at peak


def test_table2_workload_roster(benchmark, save_result):
    result = run_once(benchmark, FIGURES["table2"].run)
    save_result("table2_workloads", result.format())
    rows = table2_rows()
    assert len(rows) == 12
    categories = [category for category, *_ in rows]
    assert categories.count("synchronization-limited") == 4
    assert categories.count("bandwidth-limited") == 4
    assert categories.count("scalable") == 4
