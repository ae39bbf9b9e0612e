"""One registry of policy names behind ``--policy``, ``PolicySpec`` and ``/v1/*``."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.errors import JobError, ServeRequestError
from repro.fdt.policies import POLICIES, FdtPolicy, adaptive_policies
from repro.jobs import PolicySpec
from repro.serve.schema import parse_fdt_request, parse_run_request

NAMES = tuple(POLICIES)


def test_registry_holds_the_paper_modes_and_the_section9_policies():
    assert NAMES == ("static", "fdt", "sat", "bat",
                     "sat-two-phase", "bat-calibrated-4")
    assert adaptive_policies() == NAMES[1:]
    for name in adaptive_policies():
        assert isinstance(POLICIES[name](), FdtPolicy)


@pytest.mark.parametrize("name", NAMES)
def test_registered_name_is_accepted_everywhere(name, capsys):
    spec = PolicySpec(name)
    assert PolicySpec.from_dict(spec.to_dict()) == spec
    assert spec.build().name == POLICIES[name]().name

    assert build_parser().parse_args(
        ["run", "EP", "--policy", name]).policy == name
    code = main(["batch", "EP", "--policies", name, "--threads", "2",
                 "--scale", "0.05", "--no-cache", "--json"])
    assert code == 0, capsys.readouterr().err
    # The static row is labelled with its team size ("static-2").
    assert f'"policy": "{name}' in capsys.readouterr().out

    request = {"workload": "EP", "scale": 0.05, "policy": name}
    assert parse_run_request(request).policy == spec
    if name in adaptive_policies():
        assert parse_fdt_request(request).policy == spec
    else:
        with pytest.raises(ServeRequestError):
            parse_fdt_request(request)


def test_loadgen_rejects_threads_with_an_adaptive_policy(capsys):
    """It used to drop ``--threads`` silently; ``run`` exits 2, as here."""
    for command in (["loadgen", "EP"], ["run", "EP", "--scale", "0.05"]):
        assert main(command + ["--policy", "fdt", "--threads", "4"]) == 2
        assert "only meaningful for static" in capsys.readouterr().err


def _lists_every_name(message: str, names=NAMES) -> bool:
    return all(name in message for name in names)


def test_unknown_name_is_rejected_with_the_registry_names(capsys):
    with pytest.raises(JobError) as spec_error:
        PolicySpec("oracle")
    assert _lists_every_name(str(spec_error.value))

    with pytest.raises(SystemExit) as run_exit:
        build_parser().parse_args(["run", "EP", "--policy", "oracle"])
    assert run_exit.value.code == 2
    assert _lists_every_name(capsys.readouterr().err)

    assert main(["batch", "EP", "--policies", "oracle"]) == 2
    assert _lists_every_name(capsys.readouterr().err)

    request = {"workload": "EP", "policy": "oracle"}
    with pytest.raises(ServeRequestError) as run_error:
        parse_run_request(request)
    assert _lists_every_name(str(run_error.value))
    with pytest.raises(ServeRequestError) as fdt_error:
        parse_fdt_request(request)
    assert _lists_every_name(str(fdt_error.value), adaptive_policies())
    assert "static" not in str(fdt_error.value)
