"""One resolution from worker to wire: the property every batch obeys,
the status -> HTTP table, and the regressions the seam used to hide
(shape-corrupt cache entries, bounded aborts under a pool, N specs ->
N rows)."""

from __future__ import annotations

import asyncio
import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import JobError, ReproError
from repro.faults import FaultPlan, FaultRule, injected
from repro.faults.chaos import BatchSubmit, run_chaos
from repro.jobs import (
    JobRunner,
    JobSpec,
    PolicySpec,
    Resolution,
    ResultCache,
    app_result_to_dict,
)
from repro.jobs import api as jobs_api
from repro.jobs import backoff
from repro.jobs import executor as executor_mod
from repro.jobs import resolution as vocabulary
from repro.serve import ExperimentServer, ServeClient, ServeConfig, ServerThread
from repro.serve.http import HttpRequest
from repro.serve.server import HTTP_STATUS
from repro.sim.config import MachineConfig
from tests.programs import fork_only, served
from tests.programs import synthetic_body as _body
from tests.programs import synthetic_spec as _spec


def _rows(runner: JobRunner) -> list[tuple[str, str, str, str]]:
    return [(e.key, e.status, e.backend, e.error)
            for e in runner.manifest.entries]


def _facts(resolutions) -> list[tuple[str, str, str, str]]:
    return [(r.key, r.status, r.backend, r.error) for r in resolutions]


# -- (a) the property: N specs -> N resolutions -> N matching rows ------

#: Five distinct specs; slot 4 fails deterministically in the simulator.
_SLOTS = [_spec(iterations=8 + i) for i in range(5)]
_BROKEN = _SLOTS[4]
_RESULT = app_result_to_dict(_SLOTS[0].run())


def _fake_payload(spec_dict, trace_dir=None):
    if JobSpec.from_dict(spec_dict).key() == _BROKEN.key():
        raise ReproError("deadlock: provably stuck")
    return dict(_RESULT)


def _scenario(tmp, disk, memo, fires):
    """A runner with ``disk``/``memo`` slots warm, and the armed plan."""
    cache = ResultCache(tmp)
    for i in sorted(disk):
        cache.put(_SLOTS[i].key(), _SLOTS[i].to_dict(), _RESULT)
    runner = JobRunner(cache=cache)
    runner.resolve([_SLOTS[i] for i in sorted(memo)])
    crashes, read_errors, write_errors = fires
    plan = FaultPlan(rules=(
        FaultRule(site="executor.job", kind="crash", max_fires=crashes),
        FaultRule(site="cache.read", kind="io-error", max_fires=read_errors),
        FaultRule(site="cache.write", kind="io-error",
                  max_fires=write_errors)))
    return runner, plan


@given(batch=st.lists(st.integers(0, 4), max_size=8),
       disk=st.sets(st.integers(0, 3)), memo=st.sets(st.integers(0, 3)),
       fires=st.tuples(st.integers(0, 4), st.integers(0, 2),
                       st.integers(0, 2)))
@settings(deadline=None)
def test_every_spec_resolves_once_and_its_row_says_the_same(
        tmp_path_factory, batch, disk, memo, fires):
    specs = [_SLOTS[i] for i in batch]
    tmp = str(tmp_path_factory.mktemp("resolution"))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(executor_mod, "_execute_payload", _fake_payload)
        patch.setattr(backoff, "BACKOFF_BASE", 0.0)

        runner, plan = _scenario(tmp + "/resolve", disk, memo, fires)
        before = len(runner.manifest.entries)
        with injected(plan):
            resolutions = runner.resolve(specs)
        # One resolution per spec, in submission order...
        assert [r.key for r in resolutions] == [s.key() for s in specs]
        # ...and exactly one row per spec that says what it says.
        rows = _rows(runner)[before:]
        assert Counter(rows) == Counter(_facts(resolutions))
        for spec, resolution in zip(specs, resolutions):
            assert resolution.ok == (resolution.status in vocabulary.SERVED)
            if spec.key() == _BROKEN.key():
                assert resolution.status == "failed"

        # run() on the identical scenario: raises iff something was not
        # served, and leaves the identical manifest.
        twin, plan = _scenario(tmp + "/run", disk, memo, fires)
        with injected(plan):
            if all(r.ok for r in resolutions):
                assert len(twin.run(specs)) == len(specs)
            else:
                with pytest.raises(JobError):
                    twin.run(specs)
        assert _rows(twin) == _rows(runner)


def test_in_batch_duplicate_gets_its_own_row_and_rows_match_backends():
    runner = JobRunner(cache=None)
    spec = _spec()
    resolutions = runner.resolve([spec, spec])
    assert [(r.status, r.backend) for r in resolutions] == [
        ("computed", "serial"), ("hit", "memo")]
    assert _rows(runner) == _facts(resolutions)
    # The parent answered hit/cache here while recording hit/memo.
    (later,) = runner.resolve([spec])
    assert (later.status, later.backend) == ("hit", "memo")
    assert _rows(runner)[-1] == _facts([later])[0]


def test_duplicate_of_a_failed_leader_shares_its_failure(monkeypatch):
    monkeypatch.setattr(executor_mod, "_execute_payload", _fake_payload)
    runner = JobRunner(cache=None)
    first, second = runner.resolve([_BROKEN, _BROKEN])
    assert first == second and first.status == "failed"
    assert runner.manifest.counts["failed"] == 2


# -- (b) one status -> HTTP code table ----------------------------------

def test_the_http_table_covers_the_whole_vocabulary():
    statuses = {value for name, value in vars(vocabulary).items()
                if name.startswith("STATUS_")}
    assert set(HTTP_STATUS) == statuses and len(statuses) == 6


@pytest.mark.parametrize("status,code", sorted(HTTP_STATUS.items()))
def test_resolution_status_maps_to_its_http_code(status, code):
    spec = _spec(config=MachineConfig.asplos08_baseline())
    served = status in vocabulary.SERVED
    resolution = Resolution(
        key=spec.key(), status=status, backend="stub",
        result=dict(_RESULT) if served else None,
        error="" if served else "because", retry_after=2.5)

    async def go():
        server = ExperimentServer(ServeConfig(no_cache=True))

        async def resolve(_spec):
            return resolution

        server.pipeline.resolve = resolve  # type: ignore[method-assign]
        return await server._respond(HttpRequest(
            "POST", "/v1/run", body=json.dumps(_body()).encode()))

    got, payload, headers, _raw = asyncio.run(go())
    assert got == code == {"shed": 429, "timeout": 504,
                           "failed": 500}.get(status, 200)
    assert payload["key"] == spec.key() and payload["status"] == status
    assert ("Retry-After" in headers) == (status == "shed")
    if status == "shed":
        assert headers["Retry-After"] == "2.5"
    if status == "timeout":
        assert payload["workload"] == spec.workload.label
    if served:
        assert payload["cycles"] > 0 and payload["result"] == _RESULT
    else:
        assert "because" in payload["error"]


# -- (d) satellite 1: a parseable entry that is not a result ------------

def test_shape_corrupt_cache_entry_is_a_miss_on_every_endpoint(tmp_path):
    cache = ResultCache(tmp_path / "c")
    config = MachineConfig.asplos08_baseline()
    specs = [_spec(8, threads=t, config=config) for t in (1, 2)]
    fdt_spec = JobSpec(workload=specs[0].workload, policy=PolicySpec.fdt(),
                       config=config)
    for spec in (*specs, fdt_spec):
        JobRunner(cache=cache).resolve([spec])
        path = cache.path_for(spec.key())
        entry = json.loads(path.read_text())
        entry["result"] = {"not": "a result"}  # schema and key intact
        path.write_text(json.dumps(entry))

    with ServerThread(ServeConfig(port=0, cache_dir=str(cache.root))) as h, \
            ServeClient(port=h.port) as client:
        key = specs[1].key()
        status, payload = client.request("GET", f"/v1/result/{key}")
        assert status == 404, payload  # the parent: 200 hit, corrupt dict
        # Recomputed and overwritten, never served (the parent: 500
        # KeyError on /v1/run and /v1/sweep, forever).
        run = served(client, "POST", "/v1/run", _body())
        assert run["status"] == "computed" and run["cycles"] > 0
        assert served(client, "GET", f"/v1/result/{key}")["result"] == run["result"]
        fdt = served(client, "POST", "/v1/fdt",
                     dict(_body(), policy="fdt", threads=None))
        assert fdt["status"] == "computed" and fdt["chosen_threads"]
        sweep = served(client, "POST", "/v1/sweep", dict(_body(), threads=[1, 2]))
        assert [p["status"] for p in sweep["points"]] == ["computed", "hit"]
        assert served(client, "POST", "/v1/run", _body())["status"] == "hit"


def test_batch_path_recomputes_a_shape_corrupt_entry(tmp_path):
    cache = ResultCache(tmp_path / "c")
    spec = _spec()
    good = JobRunner(cache=cache).resolve([spec])[0].result
    path = cache.path_for(spec.key())
    entry = json.loads(path.read_text())
    entry["result"] = {"kernel_infos": "nope"}
    path.write_text(json.dumps(entry))
    (again,) = JobRunner(cache=cache).resolve([spec])
    assert again.status == "computed" and again.result == good
    assert cache.get_or_none(spec.key()) == good


def test_warm_hit_decodes_the_result_once_per_request(tmp_path, monkeypatch):
    from repro.serve import server as server_mod

    decodes = []
    real = jobs_api.app_result_from_dict

    def counting(data):
        decodes.append(1)
        return real(data)

    with ServerThread(ServeConfig(port=0, cache_dir=str(tmp_path))) as h, \
            ServeClient(port=h.port) as client:
        assert served(client, "POST", "/v1/run", _body())["status"] == "computed"
        monkeypatch.setattr(jobs_api, "app_result_from_dict", counting)
        monkeypatch.setattr(server_mod, "app_result_from_dict", counting)
        assert served(client, "POST", "/v1/run", _body())["status"] == "hit"
    assert len(decodes) == 1


# -- (d) satellite 2: bounded abort under a pool -------------------------

@fork_only
def test_bounded_abort_recovers_under_a_pool_and_is_counted():
    plan = FaultPlan(rules=(
        FaultRule(site="executor.job", kind="abort", max_fires=1),))
    specs = [_spec(8, threads=t, config=MachineConfig.asplos08_baseline())
             for t in (1, 2, 3, 4)]
    report = run_chaos(plan, BatchSubmit(specs, jobs=2))
    assert report.passed, report.summary()
    # Decided in the parent: the firing is in the one log (the parent
    # saw 0 firings and four ``failed`` specs after six pool rounds).
    assert report.injected == 1
    assert [(f["site"], f["kind"]) for f in report.firings] == [
        ("executor.job", "abort")]
    assert report.statuses == {"computed": 4}


@fork_only
def test_worker_side_crash_rule_fires_once_across_workers(fast_backoff):
    plan = FaultPlan(rules=(
        FaultRule(site="executor.job", kind="crash", max_fires=1),))
    specs = [_spec(8, threads=t) for t in (1, 2, 3)]
    runner = JobRunner(cache=None, jobs=2)
    with injected(plan) as injector:
        resolutions = runner.resolve(specs)
        # Decided in the parent: the one firing is in its log, with the
        # key of the pool job it crashed.
        (firing,) = injector.firings()
    assert (firing.site, firing.kind, firing.occurrence) == (
        "executor.job", "crash", 1)
    assert firing.key in {spec.key() for spec in specs}
    assert [r.status for r in resolutions] == ["computed"] * 3
    assert {r.backend for r in resolutions} <= {"pool", "serial"}
