"""Tests for the command-line interface."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from repro.cli import _parse_thread_list, build_parser, main
from repro.errors import ReproError


def run_cli(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_list_shows_all_workloads(capsys):
    code, out = run_cli(capsys, "list")
    assert code == 0
    for name in ("PageMine", "ED", "MTwister", "SConv"):
        assert name in out


def test_machine_prints_table1(capsys):
    code, out = run_cli(capsys, "machine")
    assert code == 0
    assert "32-core CMP" in out
    assert "split-transaction" in out


def test_machine_with_knobs(capsys):
    code, out = run_cli(capsys, "machine", "--cores", "16",
                        "--bandwidth", "2")
    assert code == 0
    assert "16-core CMP" in out
    assert "one line per 16 cycles" in out


def test_run_static_policy(capsys):
    code, out = run_cli(capsys, "run", "EP", "--policy", "static",
                        "--threads", "4", "--scale", "0.25")
    assert code == 0
    assert "4 threads" in out
    assert "power" in out


def test_run_fdt_reports_estimates(capsys):
    code, out = run_cli(capsys, "run", "EP", "--policy", "sat",
                        "--scale", "0.25")
    assert code == 0
    assert "P_CS" in out
    assert "trained" in out


def test_run_unknown_workload_fails_cleanly(capsys):
    code = main(["run", "NoSuchWorkload"])
    assert code == 2
    err = capsys.readouterr().err
    assert "unknown workload" in err


def test_run_refuses_a_static_team_larger_than_the_machine(capsys):
    """It used to print "EP under static-40", then run 32 threads."""
    code = main(["run", "EP", "--policy", "static", "--threads", "40",
                 "--scale", "0.05"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "40 threads exceeds the machine's 32" in captured.err


def test_sweep_prints_table_and_oracle(capsys):
    code, out = run_cli(capsys, "sweep", "EP", "--threads", "1,4",
                        "--scale", "0.25")
    assert code == 0
    assert "norm time" in out
    assert "oracle" in out


def test_sweep_rejects_bad_thread_list(capsys):
    code = main(["sweep", "EP", "--threads", "1,two"])
    assert code == 2


def test_figure_analytic(capsys):
    code, out = run_cli(capsys, "figure", "fig6")
    assert code == 0
    assert "Figure 6" in out


def test_figure_table2(capsys):
    code, out = run_cli(capsys, "figure", "table2")
    assert code == 0
    assert "Table 2" in out


def test_figure_manifest_is_truthful(capsys, tmp_path):
    """A simulating figure writes the manifest it was asked for; an entry
    with nothing to simulate says so, and only when asked."""
    manifest = tmp_path / "smt.json"
    assert main(["figure", "smt", "--no-cache",
                 "--manifest", str(manifest)]) == 0
    err = capsys.readouterr().err
    assert "runs no simulations" not in err and "no manifest" not in err
    assert json.loads(manifest.read_text())["counts"]["total"] > 0

    missing = tmp_path / "fig6.json"
    assert main(["figure", "fig6", "--manifest", str(missing)]) == 0
    assert "no manifest written" in capsys.readouterr().err
    assert not missing.exists()
    assert main(["figure", "fig6"]) == 0
    assert capsys.readouterr().err == ""


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parse_thread_list():
    assert _parse_thread_list("1,2,4") == (1, 2, 4)
    with pytest.raises(ReproError):
        _parse_thread_list("a,b")


def test_check_clean_workload_exits_zero(capsys):
    code, out = run_cli(capsys, "check", "EP", "--scale", "0.1")
    assert code == 0
    assert "OK - no findings" in out


def test_check_racy_fixture_exits_nonzero(capsys):
    code, out = run_cli(capsys, "check", "synthetic-racy")
    assert code == 1
    assert "FAIL" in out
    assert "empty-lockset" in out


def test_check_refuses_a_one_slot_machine(capsys):
    """A team of one has nobody to race with: exit 2 naming the slot
    count, not a vacuous "OK" — while the static half needs no slots."""
    assert main(["check", "synthetic-racy", "--cores", "1"]) == 2
    assert "1 thread slot" in capsys.readouterr().err
    assert main(["check", "EP", "--threads", "99"]) == 2
    assert "exceeds the machine's 32" in capsys.readouterr().err
    code, out = run_cli(capsys, "check", "synthetic-racy", "--cores", "2")
    assert code == 1
    assert "(2 threads)" in out and "empty-lockset" in out
    code, out = run_cli(capsys, "check", "static-deadlock", "--static-only",
                        "--cores", "1")
    assert code == 1
    assert "static-lock-order-cycle" in out


def test_check_json_output_is_valid(capsys):
    import json
    code, out = run_cli(capsys, "check", "synthetic-racy", "--json")
    assert code == 1
    parsed = json.loads(out)
    assert parsed["clean"] is False
    assert parsed["counts"]["race"] >= 1


def test_check_unknown_workload_fails_cleanly(capsys):
    code = main(["check", "NoSuchWorkload"])
    assert code == 2
    assert "unknown workload" in capsys.readouterr().err


def test_run_with_smt_flag(capsys):
    code, out = run_cli(capsys, "run", "EP", "--policy", "sat",
                        "--scale", "0.25", "--smt", "2")
    assert code == 0


def test_run_writes_machine_report(capsys, tmp_path):
    report = tmp_path / "report.json"
    code, out = run_cli(capsys, "run", "EP", "--policy", "static",
                        "--threads", "2", "--scale", "0.25",
                        "--report", str(report))
    assert code == 0
    import json
    parsed = json.loads(report.read_text())
    assert parsed["cycles"] > 0
    assert parsed["locks"]["acquisitions"] > 0


def test_parse_thread_list_rejects_empty():
    with pytest.raises(ReproError, match="thread list is empty"):
        _parse_thread_list("")
    with pytest.raises(ReproError, match="thread list is empty"):
        _parse_thread_list(" , ,")


def test_sweep_empty_thread_list_fails_cleanly(capsys):
    code = main(["sweep", "EP", "--threads", ""])
    assert code == 2
    assert "thread list is empty" in capsys.readouterr().err


def test_sweep_warns_on_counts_over_cores(capsys):
    code = main(["sweep", "EP", "--threads", "1,2,64,128",
                 "--scale", "0.1"])
    assert code == 0
    err = capsys.readouterr().err
    assert "warning" in err
    assert "64,128" in err


def test_run_json_output_is_valid(capsys):
    import json
    code, out = run_cli(capsys, "run", "EP", "--policy", "static",
                        "--threads", "2", "--scale", "0.1", "--json")
    assert code == 0
    parsed = json.loads(out)
    assert parsed["app_name"] == "EP"
    assert parsed["policy_name"] == "static-2"
    assert parsed["cycles"] > 0
    assert parsed["power"] > 0
    # Any capitalization names the same workload, as on /v1/run.
    code, out = run_cli(capsys, "run", "pagemine", "--policy", "static",
                        "--threads", "2", "--scale", "0.05", "--json")
    assert code == 0
    assert json.loads(out)["app_name"] == "PageMine"


def test_sweep_json_output_is_valid(capsys):
    import json
    code, out = run_cli(capsys, "sweep", "EP", "--threads", "1,2",
                        "--scale", "0.1", "--json")
    assert code == 0
    parsed = json.loads(out)
    assert [p["threads"] for p in parsed["points"]] == [1, 2]
    assert parsed["best_threads"] in (1, 2)
    assert parsed["oracle_threads"] in (1, 2)
    code, out = run_cli(capsys, "sweep", "pagemine", "--threads", "1",
                        "--scale", "0.05", "--json", "--no-cache")
    assert code == 0
    assert json.loads(out)["workload"] == "PageMine"


def test_batch_cold_then_warm_manifest_counts(capsys, tmp_path):
    import json
    cache = tmp_path / "cache"
    argv = ["batch", "EP", "--threads", "1,2", "--policies", "static,fdt",
            "--scale", "0.1", "--cache-dir", str(cache)]

    cold_manifest = tmp_path / "cold.json"
    code, out = run_cli(capsys, *argv, "--manifest", str(cold_manifest))
    assert code == 0
    assert "static-1" in out and "fdt" in out
    cold = json.loads(cold_manifest.read_text())
    assert cold["counts"] == {"total": 3, "hits": 0, "computed": 3,
                              "failed": 0, "timeouts": 0}

    warm_manifest = tmp_path / "warm.json"
    code, out = run_cli(capsys, *argv, "--json",
                        "--manifest", str(warm_manifest))
    assert code == 0
    parsed = json.loads(out)
    assert parsed["counts"] == {"total": 3, "hits": 3, "computed": 0,
                                "failed": 0, "timeouts": 0}
    assert all(j["status"] == "hit" for j in parsed["jobs"])
    assert all(j["cycles"] > 0 for j in parsed["jobs"])


def test_batch_rejects_unknown_policy(capsys):
    code = main(["batch", "EP", "--policies", "oracle"])
    assert code == 2
    assert "unknown policy" in capsys.readouterr().err


def test_batch_no_cache_always_computes(capsys, tmp_path):
    import json
    manifest = tmp_path / "m.json"
    code, _ = run_cli(capsys, "batch", "EP", "--threads", "1",
                      "--policies", "static", "--scale", "0.1",
                      "--no-cache", "--manifest", str(manifest))
    assert code == 0
    counts = json.loads(manifest.read_text())["counts"]
    assert counts == {"total": 1, "hits": 0, "computed": 1,
                      "failed": 0, "timeouts": 0}


def test_check_static_only_detects_seeded_deadlock(capsys):
    code, out = run_cli(capsys, "check", "static-deadlock", "--static-only")
    assert code == 1
    assert "static-lock-order-cycle" in out
    assert "static prior" in out


def test_check_static_json_reports_prior_agreement(capsys):
    code, out = run_cli(capsys, "check", "EP", "--static", "--json",
                        "--scale", "0.2")
    assert code == 0
    payload = json.loads(out)
    assert payload["clean"] is True
    assert payload["static"]["clean"] is True
    assert "ep" in payload["static"]["priors"]
    agreement = payload["agreement"]["ep"]
    assert {"static_cs_fraction", "measured_cs_fraction",
            "within_tolerance"} <= set(agreement)


def test_check_static_only_json_top_level_is_static_report(capsys):
    code, out = run_cli(capsys, "check", "static-barrier-mismatch",
                        "--static-only", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["workload"] == "static-barrier-mismatch"
    assert "static-barrier-count-mismatch" in payload["counts"]


def test_check_requires_workload_or_all(capsys):
    code = main(["check"])
    assert code == 2
    assert "workload name or --all" in capsys.readouterr().err


def test_check_static_fixture_dynamic_mode_still_resolves(capsys):
    # The static fixtures are valid dynamic workloads too: the latent
    # deadlock is staggered to dodge the FIFO grant order, but the
    # dynamic lock-order analysis still sees the cycle.
    code, out = run_cli(capsys, "check", "static-counter-in-cs")
    assert code in (0, 1)
    assert "static-counter-in-cs" in out


def test_batch_accepts_preflight_flag(capsys):
    code, out = run_cli(capsys, "batch", "EP", "--threads", "2",
                        "--scale", "0.1", "--no-cache", "--preflight")
    assert code == 0


@pytest.mark.parametrize("scale", ["nan", "inf", "0", "-0.0", "-1"])
@pytest.mark.parametrize("command", [["run", "EP"], ["sweep", "EP"],
                                     ["batch", "EP"]])
def test_a_scale_that_is_not_finite_and_positive_exits_2(command, scale,
                                                         capsys):
    """NaN and infinity used to end in a traceback, and 0 or a negative
    factor ran the builder's smallest input."""
    with pytest.raises(SystemExit) as exit_info:
        main([*command, f"--scale={scale}"])
    assert exit_info.value.code == 2
    assert "finite and > 0" in capsys.readouterr().err


TABLE2 = ("PageMine", "ISort", "GSearch", "EP", "ED", "convert", "Transpose",
          "MTwister", "BT", "MG", "BScholes", "SConv")


def _in_a_fresh_process(code: str):
    """What ``code`` prints as its last line, run by a new interpreter
    (this one has imported everything already)."""
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def test_a_cold_synthetic_run_loads_no_table2_module_and_no_numpy():
    """Mounting every command and running the serve-miss kernel imports
    only what that run needs: no numpy, no Table 2 workload, neither
    the sanitizer nor the analyzer, no trace recorder."""
    loaded = _in_a_fresh_process(
        "import json, sys, repro.cli\n"
        "from repro.jobs import JobSpec, PolicySpec, WorkloadRef\n"
        "from repro.sim.config import MachineConfig\n"
        "repro.cli.build_parser()\n"
        "JobSpec(workload=WorkloadRef.synthetic(cs_fraction=0.1, bus_lines=2,\n"
        "                                       iterations=8, compute_instr=500),\n"
        "        policy=PolicySpec('fdt'), config=MachineConfig.small(4)).run()\n"
        "print(json.dumps(sorted(sys.modules)))")
    table2 = {f"repro.workloads.{name.lower()}" for name in TABLE2}
    heavy = {"numpy", "repro.check.sanitizer", "repro.check.static",
             "repro.trace.recorder"}
    assert not (table2 | heavy) & set(loaded)
    assert "repro.workloads.synthetic" in loaded


def test_get_imports_one_workload_and_all_specs_keeps_table2_order():
    loaded, names = _in_a_fresh_process(
        "import json, sys\n"
        "from repro.workloads import all_specs, get\n"
        "get('sconv')\n"
        "loaded = sorted(m for m in sys.modules\n"
        "                if m.startswith('repro.workloads.'))\n"
        "print(json.dumps([loaded, [s.name for s in all_specs()]]))")
    assert loaded == ["repro.workloads.base", "repro.workloads.sconv"]
    assert names == list(TABLE2)


def test_the_quickstart_import_line_resolves_names_on_first_use():
    before, sim_loaded = _in_a_fresh_process(
        "import json, sys, repro\n"
        "before = sorted(m for m in sys.modules if m.startswith('repro.'))\n"
        "from repro import MachineConfig, FdtPolicy, run_application, workloads\n"
        "assert MachineConfig.__module__ == 'repro.sim.config'\n"
        "assert run_application.__module__ == 'repro.fdt.runner'\n"
        "assert workloads.get('EP').name == 'EP' and FdtPolicy\n"
        "print(json.dumps([before, 'repro.sim.machine' in sys.modules]))")
    assert before == []
    assert sim_loaded
