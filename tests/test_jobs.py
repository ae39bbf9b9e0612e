"""Unit tests for the job-spec, serialization, and cache layers."""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
import os
import time
from dataclasses import asdict, fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.errors import JobError, ServeError
from repro.fdt.estimators import Estimates
from repro.fdt.policies import POLICIES, StaticPolicy
from repro.fdt.runner import run_application
from repro.jobs import (
    SCHEMA_VERSION,
    JobRunner,
    JobSpec,
    PolicySpec,
    ResultCache,
    WorkloadRef,
    app_result_from_dict,
    app_result_to_dict,
    config_from_dict,
    config_to_dict,
    default_cache_dir,
)
from repro.jobs import api as jobs_api
from repro.jobs import backoff
from repro.jobs import executor as executor_mod
from repro.jobs import spec as spec_mod
from repro.serve import RequestPipeline, ServeConfig, ServeMetrics
from repro.sim.config import MachineConfig
from repro.workloads import get
from tests.programs import fork_only


def ep_spec(threads: int = 2, scale: float = 0.1,
            config: MachineConfig | None = None) -> JobSpec:
    return JobSpec(
        workload=WorkloadRef(name="EP", scale=scale),
        policy=PolicySpec.static(threads),
        config=config or MachineConfig.asplos08_baseline(),
    )


# -- specs and keys ----------------------------------------------------------

def test_key_is_stable_and_content_addressed():
    assert ep_spec().key() == ep_spec().key()
    assert len(ep_spec().key()) == 64  # sha256 hex


@pytest.mark.parametrize("other", [
    ep_spec(threads=4),
    ep_spec(scale=0.2),
    ep_spec(config=MachineConfig.baseline_with(cores=16)),
    JobSpec(workload=WorkloadRef(name="PageMine", scale=0.1),
            policy=PolicySpec.static(2),
            config=MachineConfig.asplos08_baseline()),
    JobSpec(workload=WorkloadRef(name="EP", scale=0.1),
            policy=PolicySpec.sat(),
            config=MachineConfig.asplos08_baseline()),
])
def test_key_changes_with_any_input(other: JobSpec):
    assert other.key() != ep_spec().key()


@pytest.mark.parametrize("spec, key", [
    pytest.param(
        JobSpec(WorkloadRef("EP", 0.1), PolicySpec.static(2),
                MachineConfig.asplos08_baseline()),
        "20e7a961045aaede41067a612bf42740a2aefb7364dc09c32c8e755206230114",
        id="EP-static2"),
    pytest.param(
        JobSpec(WorkloadRef.synthetic(cs_fraction=0.05, bus_lines=16,
                                      iterations=32),
                PolicySpec.fdt(), MachineConfig.baseline_with(cores=16,
                                                              bandwidth=0.5)),
        "1255f72fa929745de4e8e71dfdca4ba06eff309b807b050467f826174d7874cb",
        id="synthetic-fdt-16cores-halfbw"),
])
def test_key_is_pinned(spec: JobSpec, key: str):
    """Existing cache entries stay addressable: the key is a literal."""
    assert spec.key() == key


def _reference_key(spec: JobSpec) -> str:
    """The canonical form as the key's docstring states it."""
    payload = {"schema": SCHEMA_VERSION, **spec.to_dict()}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


_param_values = st.one_of(
    st.integers(), st.floats(allow_nan=False), st.text(max_size=4),
    st.lists(st.integers(-9, 9), max_size=3))
_workload_refs = st.one_of(
    st.builds(WorkloadRef, name=st.sampled_from(["EP", "PageMine", "é"]),
              scale=st.floats(0.01, 4.0),
              params=st.lists(st.tuples(st.text(min_size=1, max_size=6),
                                        _param_values),
                              max_size=3, unique_by=lambda kv: kv[0])),
    st.builds(WorkloadRef.synthetic,
              cs_fraction=st.floats(0.0, 1.0, exclude_max=True),
              bus_lines=st.integers(0, 64), iterations=st.integers(1, 512),
              compute_instr=st.integers(1, 100_000),
              name=st.text(min_size=1, max_size=6)))
_policy_specs = st.sampled_from(sorted(POLICIES)).flatmap(
    lambda kind: st.builds(PolicySpec, kind=st.just(kind),
                           threads=st.none() | st.integers(1, 64))
    if kind == "static" else st.just(PolicySpec(kind)))
_configs = st.one_of(
    st.builds(MachineConfig.baseline_with,
              cores=st.none() | st.integers(1, 64),
              bandwidth=st.none() | st.floats(0.125, 8.0),
              smt=st.none() | st.integers(1, 4)),
    st.builds(MachineConfig.small, st.integers(1, 32)))


@settings(max_examples=200)
@given(_workload_refs, _policy_specs, _configs)
def test_key_is_the_sha256_of_the_canonical_payload(workload, policy, config):
    if (policy.threads or 0) > config.num_thread_slots:
        with pytest.raises(JobError, match="hardware thread slots"):
            JobSpec(workload, policy, config)
        return
    spec = JobSpec(workload, policy, config)
    assert spec.key() == _reference_key(spec)


def test_config_memo_stays_bounded():
    cap = spec_mod._config_hasher.cache_info().maxsize
    for cores in range(1, cap + 10):
        JobSpec(WorkloadRef("EP"), PolicySpec.fdt(),
                MachineConfig.baseline_with(cores=cores)).key()
    assert spec_mod._config_hasher.cache_info().currsize == cap


def test_a_warm_hit_flattens_its_config_once(tmp_path, monkeypatch):
    spec = JobSpec(WorkloadRef.synthetic(cs_fraction=0.2, bus_lines=2,
                                         iterations=8, compute_instr=200),
                   PolicySpec.static(2), MachineConfig.small())
    cache = ResultCache(tmp_path)
    cache.put(spec.key(), spec.to_dict(), app_result_to_dict(spec.run()))
    flattened = []
    real = spec_mod.config_to_dict
    monkeypatch.setattr(spec_mod, "config_to_dict",
                        lambda config: flattened.append(config) or real(config))
    spec_mod._config_hasher.cache_clear()
    pipeline = RequestPipeline(ServeConfig(), ServeMetrics(), cache)

    async def go():
        await pipeline.start()
        try:
            return [await pipeline.resolve(spec) for _ in range(100)]
        finally:
            await pipeline.drain()

    assert {r.status for r in asyncio.run(go())} == {"hit"}
    assert flattened == [spec.config]


def test_a_static_team_larger_than_the_machine_is_refused():
    """It would run clamped to the slots, under a second key."""
    table1 = MachineConfig.asplos08_baseline()
    with pytest.raises(JobError, match="33 threads exceeds the machine's "
                       "32 hardware thread slots"):
        JobSpec(WorkloadRef("EP"), PolicySpec.static(33), table1)
    assert JobSpec(WorkloadRef("EP"), PolicySpec.static(64),
                   table1.with_smt(2)).policy.threads == 64
    assert JobSpec(WorkloadRef("EP"), PolicySpec.static(32),
                   table1).policy.threads == 32


def test_static_none_and_explicit_threads_hash_differently():
    # static-ncores and static-32 run identically on a 32-core machine
    # but carry different policy names, so they must not share a key.
    assert (ep_spec(threads=None).key() != ep_spec(threads=32).key())


def test_spec_round_trips_through_dict():
    spec = ep_spec()
    clone = JobSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert clone == spec
    assert clone.key() == spec.key()


def test_synthetic_ref_round_trips_and_builds():
    ref = WorkloadRef.synthetic(cs_fraction=0.05, bus_lines=16,
                                iterations=32)
    assert WorkloadRef.from_dict(ref.to_dict()) == ref
    app = ref.build()
    assert app.kernels[0].total_iterations == 32
    assert "cs=0.05" in ref.label


@pytest.mark.parametrize("knobs", [
    {"cs_fraction": 1.0}, {"cs_fraction": 2.5}, {"cs_fraction": -0.1},
    {"cs_fraction": float("nan")}, {"bus_lines": -1},
    {"compute_instr": -1}, {"iterations": 0},
])
def test_a_synthetic_ref_refuses_knobs_the_kernel_would(knobs):
    with pytest.raises(JobError, match=next(iter(knobs))):
        WorkloadRef.synthetic(**knobs)


@pytest.mark.parametrize("kind", ["registry", "synthetic"])
@pytest.mark.parametrize("scale", [math.nan, math.inf, -math.inf, 0.0, -0.0,
                                   -1.0])
def test_a_ref_refuses_a_scale_that_is_not_finite_and_positive(kind, scale):
    """NaN used to be hashed and fail in the builder as a transient
    error; 0, -0.0 and -1 ran the smallest input under three keys."""
    with pytest.raises(JobError, match="scale must be finite and > 0"):
        WorkloadRef("EP", scale=scale, kind=kind)
    assert WorkloadRef("EP", scale=1e-9, kind=kind).scale == 1e-9


def test_config_is_table_1_and_round_trips_with_no_special_case():
    names = {f.name for f in fields(MachineConfig)}
    assert len(names) == 31
    assert not names & {"sanitizer", "trace", "observer", "observers"}
    cfg = MachineConfig.small().with_smt(2).with_bandwidth(0.5)
    assert config_to_dict(cfg) == asdict(cfg)
    clone = config_from_dict(json.loads(json.dumps(config_to_dict(cfg))))
    assert clone == cfg


def test_workload_params_are_canonical_hashed_and_passed_to_the_builder():
    ref = WorkloadRef("PageMine", 0.1, params=[["page_bytes", 1024]])
    assert ref.params == (("page_bytes", 1024),)
    assert ref == WorkloadRef.from_dict(json.loads(json.dumps(ref.to_dict())))
    assert ref.label == "PageMine@0.1, page_bytes=1024"
    assert ref.build().kernels[0].params.page_bytes == 1024
    plain = WorkloadRef("PageMine", 0.1)
    key = lambda w: JobSpec(w, PolicySpec.sat(), MachineConfig.small()).key()
    assert key(ref) != key(plain)
    assert plain.build().kernels[0].params.page_bytes == 5280
    with pytest.raises(JobError):
        WorkloadRef.synthetic().from_dict(
            {**WorkloadRef.synthetic().to_dict(), "params": [["x", 1]]})


def test_invalid_specs_rejected():
    with pytest.raises(JobError):
        WorkloadRef(name="EP", kind="nope")
    with pytest.raises(JobError):
        PolicySpec(kind="oracle")
    with pytest.raises(JobError):
        PolicySpec(kind="sat", threads=4)
    with pytest.raises(JobError):
        PolicySpec.static(0)


@pytest.mark.parametrize("jobs, timeout", [(0, None), (-1, None),
                                           (2, 0.0), (2, -1.0)])
def test_no_workers_or_a_timeout_not_positive_is_refused(jobs, timeout,
                                                         capsys):
    """``Future.result(timeout=0)`` times out a running job at once, so
    such a timeout would report every pooled spec ``timeout``; and zero
    workers used to run serially without a word."""
    with pytest.raises(JobError):
        JobRunner(jobs=jobs, timeout=timeout)
    with pytest.raises(ServeError):
        ServeConfig(jobs=jobs, job_timeout=timeout)
    flags = ["--jobs", str(jobs)]
    if timeout is not None:
        flags += ["--timeout", str(timeout)]
    assert main(["sweep", "EP", "--threads", "1", "--no-cache",
                 *flags]) == 2
    assert "error: " in capsys.readouterr().err


def test_policy_labels():
    assert PolicySpec.static(7).label == "static-7"
    assert PolicySpec.static().label == "static-ncores"
    assert PolicySpec.bat().label == "bat"


# -- result serialization -----------------------------------------------------

def test_app_result_round_trip_is_exact():
    res = run_application(get("EP").build(0.1), StaticPolicy(2),
                          MachineConfig.asplos08_baseline())
    data = json.loads(json.dumps(app_result_to_dict(res)))
    assert app_result_from_dict(data) == res


def test_estimates_round_trip_preserves_infinities():
    est = Estimates(t_cs=0.0, t_nocs=123.5, bu1=0.0,
                    p_cs_real=math.inf, p_bw_real=math.inf,
                    p_cs=32, p_bw=32, p_fdt=32)
    data = json.loads(json.dumps(est.to_dict()))
    assert data["p_cs_real"] == "inf"  # strict JSON, no Infinity literal
    assert Estimates.from_dict(data) == est


# -- the cache ----------------------------------------------------------------

def test_cache_put_get_round_trip(tmp_path):
    cache = ResultCache(tmp_path)
    spec = ep_spec()
    result = {"app_name": "EP", "policy_name": "static-2",
              "kernel_infos": []}
    cache.put(spec.key(), spec.to_dict(), result)
    assert cache.get(spec.key()) == result
    assert len(cache) == 1
    assert cache.get("0" * 64) is None  # miss


def test_cache_entry_is_schema_tagged(tmp_path):
    cache = ResultCache(tmp_path)
    key = ep_spec().key()
    cache.put(key, {}, {"x": 1})
    path = cache.path_for(key)
    assert f"v{SCHEMA_VERSION}" in str(path)
    payload = json.loads(path.read_text())
    assert payload["schema"] == SCHEMA_VERSION
    assert payload["key"] == key


def test_cache_entry_bytes_are_one_sorted_json_document(tmp_path):
    """The stored file is exactly ``json.dumps(payload, sort_keys=True)``
    (put encodes in one C-encoder call), and ``get`` reads it back."""
    cache = ResultCache(tmp_path)
    key = ep_spec().key()
    spec = {"workload": {"name": "é", "scale": 0.1}, "b": [1, 2], "a": None}
    result = {"z": 1.5, "kernel_infos": [{"p_cs_real": "inf"}], "a": True}
    cache.put(key, spec, result)
    expected = json.dumps({"schema": SCHEMA_VERSION, "key": key,
                           "spec": spec, "result": result}, sort_keys=True)
    assert cache.path_for(key).read_bytes() == expected.encode("utf-8")
    assert cache.get(key) == result


@pytest.mark.parametrize("garbage", [
    "",                                  # truncated to nothing
    '{"schema": 1, "key": ',             # truncated mid-JSON
    "not json at all \x00",              # garbage bytes
    '{"schema": 999, "key": "k", "result": {}}',   # foreign schema
    '{"schema": 1, "key": "wrong", "result": {}}',  # key mismatch
    '[1, 2, 3]',                         # wrong shape
    '{"schema": 1, "result": "str"}',    # non-dict result
])
def test_cache_corruption_is_a_miss_not_a_crash(tmp_path, garbage):
    cache = ResultCache(tmp_path)
    key = ep_spec().key()
    cache.put(key, {}, {"x": 1})
    cache.path_for(key).write_text(garbage)
    assert cache.get(key) is None
    assert not cache.path_for(key).exists()  # bad entry discarded


def test_writes_land_after_their_directories_vanish(tmp_path):
    """Directories are made on the first write that finds them missing,
    not checked before every write."""
    import shutil

    from repro.obs.runreg import RunRecord, RunRegistry

    cache = ResultCache(tmp_path / "c")
    registry = RunRegistry(tmp_path / "c" / "obs")
    key = ep_spec().key()
    cache.put(key, {}, {"x": 1})
    registry.append(RunRecord(key="1", workload="w", policy="p",
                              status="hit", backend="cache"))
    shutil.rmtree(cache.path_for(key).parent)
    shutil.rmtree(registry.root)
    cache.put(key, {}, {"x": 2})
    registry.append(RunRecord(key="2", workload="w", policy="p",
                              status="computed", backend="serial"))
    assert cache.get(key) == {"x": 2}
    assert [r.key for r in registry.records()] == ["2"]
    assert registry.sink.degraded is False


def test_cache_default_dir_honors_env(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
    assert default_cache_dir() == tmp_path / "custom"
    monkeypatch.delenv("REPRO_CACHE_DIR")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert default_cache_dir() == tmp_path / "xdg" / "repro"


# -- pre-flight gate ---------------------------------------------------------

def test_preflight_key_ignores_policy():
    from repro.jobs import preflight_key

    static = ep_spec(threads=2)
    fdt = JobSpec(workload=static.workload, policy=PolicySpec.fdt(),
                  config=static.config)
    assert preflight_key(static) == preflight_key(fdt)
    assert preflight_key(static) != static.key()
    other = ep_spec(scale=0.2)
    assert preflight_key(static) != preflight_key(other)


def test_run_preflight_passes_clean_workload():
    from repro.jobs import run_preflight

    verdict = run_preflight(ep_spec())
    assert verdict.ok
    assert verdict.fatal == ()
    # Round-trips through the cache encoding.
    from repro.jobs.preflight import PreflightVerdict
    assert PreflightVerdict.from_dict(verdict.to_dict()) == verdict


def test_runner_preflight_rejects_fatal_workload(tmp_path, monkeypatch):
    from repro.jobs import JobRunner
    from repro.jobs.preflight import PreflightVerdict
    import repro.jobs.api as jobs_api

    bad = PreflightVerdict(workload="EP@0.1", ok=False,
                           counts={"static-barrier-count-mismatch": 1},
                           fatal=("threads disagree on barrier counts",))
    analyzed = []

    def fake_preflight(spec):
        analyzed.append(spec.workload.label)
        return bad

    monkeypatch.setattr(jobs_api, "run_preflight", fake_preflight)
    runner = JobRunner(cache=None, preflight=True)
    with pytest.raises(JobError, match="pre-flight"):
        runner.run([ep_spec()])
    assert analyzed == ["EP@0.1"]
    entries = runner.manifest.entries
    assert entries[-1].status == "preflight-failed"
    assert entries[-1].backend == "static"


def test_runner_preflight_verdict_is_cached(tmp_path):
    from repro.jobs import JobRunner, preflight_key

    cache = ResultCache(tmp_path / "cache")
    spec = ep_spec()
    runner = JobRunner(cache=cache, preflight=True)
    runner.run([spec])
    pkey = preflight_key(spec)
    stored = cache.get(pkey)
    assert stored is not None and stored["ok"] is True

    # A fresh runner resolves the verdict from the cache: poison the
    # entry and verify the gate now refuses without re-analyzing.
    cache.put(pkey, {"preflight": spec.workload.to_dict()},
              {"workload": spec.workload.label, "ok": False,
               "counts": {}, "fatal": ["poisoned verdict"]})
    fresh = JobRunner(cache=cache, preflight=True)
    fresh._memo.clear()
    with pytest.raises(JobError, match="poisoned verdict"):
        fresh.run([ep_spec(threads=4)])  # different job, same workload


def test_runner_preflight_off_by_default():
    from repro.jobs import JobRunner

    runner = JobRunner(cache=None)
    assert runner.preflight is False
    runner.run([ep_spec()])  # no gate, computes normally


# -- the memo, the cache and failure handling ---------------------------------

def ep_grid(config: MachineConfig | None = None) -> list[JobSpec]:
    """EP at 0.1 under static 1, 2 and 4, then FDT."""
    return [ep_spec(threads=t, config=config) for t in (1, 2, 4)] + [
        JobSpec(workload=WorkloadRef(name="EP", scale=0.1),
                policy=PolicySpec.fdt(),
                config=config or MachineConfig.asplos08_baseline())]


def test_memo_dedupes_repeated_specs(memo):
    runner = JobRunner()
    spec = ep_grid()[0]
    first = runner.run_one(spec)
    second = runner.run_one(spec)
    assert first == second == memo.run_one(spec)
    statuses = [e.status for e in runner.manifest.entries]
    assert statuses == ["computed", "hit"]


def test_corrupt_cache_entry_recomputes_only_that_job(tmp_path, memo):
    cache = ResultCache(tmp_path)
    specs = ep_grid()
    JobRunner(cache=cache).run(specs)
    cache.path_for(specs[1].key()).write_text("{corrupt")

    warm = JobRunner(cache=ResultCache(tmp_path))
    assert warm.run(specs) == memo.run(specs)
    assert warm.manifest.counts == {
        "total": 4, "hits": 3, "computed": 1, "failed": 0,
        "timeouts": 0}


def test_unknown_workload_fails_with_job_error():
    spec = JobSpec(workload=WorkloadRef(name="NoSuchWorkload"),
                   policy=PolicySpec.static(1),
                   config=MachineConfig.small())
    runner = JobRunner()
    with pytest.raises(JobError, match="NoSuchWorkload"):
        runner.run_one(spec)
    assert runner.manifest.counts["failed"] == 1


def test_pool_spawn_failure_falls_back_to_serial(monkeypatch, memo):
    def broken_pool(*args, **kwargs):
        raise OSError("no processes for you")

    monkeypatch.setattr(executor_mod.futures, "ProcessPoolExecutor",
                        broken_pool)
    runner = JobRunner(jobs=4)
    assert runner.run(ep_grid()) == memo.run(ep_grid())
    assert {e.backend for e in runner.manifest.entries} == {"serial-fallback"}


@fork_only
def test_pool_retries_after_worker_crash(tmp_path, monkeypatch, memo):
    flag = tmp_path / "crashed-once"
    real = executor_mod._execute_payload

    def crash_once(spec_dict, trace_dir=None):
        if not flag.exists():
            flag.write_text("x")
            os._exit(13)  # hard worker death -> BrokenProcessPool
        return real(spec_dict, trace_dir)

    monkeypatch.setattr(executor_mod, "_execute_payload", crash_once)
    runner = JobRunner(jobs=2)  # default arguments recover from one crash
    assert runner.run(ep_grid()) == memo.run(ep_grid())
    assert all(e.status in ("computed", "hit")
               for e in runner.manifest.entries)


@fork_only
def test_pool_gives_up_after_bounded_retries(monkeypatch, tmp_path,
                                             fast_backoff):
    def always_crash(spec_dict, trace_dir=None):
        with open(tmp_path / "submissions", "a") as log:
            log.write(f"{spec_dict['policy']['threads']}\n")
        os._exit(13)

    monkeypatch.setattr(executor_mod, "_execute_payload", always_crash)
    rounds = []
    real_execute = jobs_api.execute_jobs
    monkeypatch.setattr(jobs_api, "execute_jobs", lambda specs, **kw: (
        rounds.append(len(specs)), real_execute(specs, **kw))[1])
    runner = JobRunner(jobs=2)
    specs = [ep_spec(threads=t, scale=0.05, config=MachineConfig.small())
             for t in (1, 2)]
    with pytest.raises(JobError, match="crashed"):
        runner.run(specs)
    assert runner.manifest.counts["failed"] == 2
    # One retry loop: RETRY_BUDGET + 1 pool rounds, and no job is
    # started more often than that.
    assert rounds == [2] * (backoff.RETRY_BUDGET + 1) == [2, 2, 2]
    started = (tmp_path / "submissions").read_text().split()
    assert 1 <= max(started.count("1"), started.count("2")) \
        <= backoff.RETRY_BUDGET + 1


@fork_only
def test_pool_timeout_reports_timed_out_jobs(monkeypatch):
    def too_slow(spec_dict, trace_dir=None):
        time.sleep(5.0)
        return {}

    monkeypatch.setattr(executor_mod, "_execute_payload", too_slow)
    runner = JobRunner(jobs=2, timeout=0.2)
    specs = [ep_spec(threads=t, scale=0.05, config=MachineConfig.small())
             for t in (1, 2)]
    with pytest.raises(JobError, match="within"):
        runner.run(specs)
    assert {e.status for e in runner.manifest.entries} == {"timeout"}
