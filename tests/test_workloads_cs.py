"""Functional tests for the synchronization-limited workloads.

Each workload performs its real computation while emitting ops; running
the kernel to completion must produce the algorithm's correct answer,
and the op streams must have the structural properties (critical
sections, barriers) the paper's Figure 1 pattern requires.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.fdt.policies import StaticPolicy
from repro.fdt.runner import run_application
from repro.isa.ops import BarrierWait, Compute, Load, Lock, Store, Unlock
from repro.runtime.parallel import static_chunk
from repro.sim.config import MachineConfig
from repro.workloads import ep, isort, pagemine
from repro.workloads.base import LINE
from repro.workloads.ep import _LCG_A, _LCG_C, _MASK, EpKernel, EpParams, _lcg_block
from repro.workloads.gsearch import (
    GSearchKernel,
    GSearchParams,
    _bfs_batches,
    _build_graph,
)
from repro.workloads.isort import ISortKernel, ISortParams
from repro.workloads.pagemine import PageMineKernel, PageMineParams

from tests.programs import drive_team, validate_program


def small_cfg() -> MachineConfig:
    return MachineConfig.small()


# -- PageMine -----------------------------------------------------------------

def test_pagemine_histogram_is_correct_serially():
    kernel = PageMineKernel(PageMineParams(num_pages=10, page_bytes=1024))
    for page in range(kernel.total_iterations):
        for _op in kernel.serial_iteration(page):
            pass
    np.testing.assert_array_equal(kernel.global_histogram,
                                  kernel.expected_histogram())


def test_pagemine_histogram_is_correct_with_team():
    kernel = PageMineKernel(PageMineParams(num_pages=8, page_bytes=1024))
    from repro.fdt.runner import Application
    app = Application.single(kernel)
    run_application(app, StaticPolicy(4), small_cfg())
    np.testing.assert_array_equal(kernel.global_histogram,
                                  kernel.expected_histogram())


def test_pagemine_iteration_is_well_formed():
    kernel = PageMineKernel(PageMineParams(num_pages=2))
    ops = validate_program(kernel.serial_iteration(0))
    assert sum(1 for op in ops if isinstance(op, Lock)) == 1
    assert sum(1 for op in ops if isinstance(op, BarrierWait)) == 1


def test_pagemine_team_splits_the_page():
    kernel = PageMineKernel(PageMineParams(num_pages=2))
    t0 = list(kernel.team_iteration(0, 0, 4))
    t3 = list(kernel.team_iteration(0, 3, 4))
    from repro.isa.ops import Load
    loads0 = {op.addr for op in t0 if isinstance(op, Load)}
    loads3 = {op.addr for op in t3 if isinstance(op, Load)}
    # Page slices touch disjoint page lines; both merge into the shared
    # histogram lines, so only those addresses may overlap.
    page_overlap = {a for a in loads0 & loads3 if a < kernel._locals_base}
    assert not page_overlap


def test_pagemine_cs_work_is_team_size_independent():
    """Each thread's merge is the full histogram regardless of team size
    (the property that makes total CS time linear in threads)."""
    kernel = PageMineKernel(PageMineParams(num_pages=2))
    for team in (1, 4, 8):
        ops = list(kernel.team_iteration(0, 0, team))
        in_cs = 0
        depth = 0
        for op in ops:
            if isinstance(op, Lock):
                depth += 1
            elif isinstance(op, Unlock):
                depth -= 1
            elif depth:
                in_cs += 1
        assert in_cs == 24  # 8 lines x (local load + compute + RFO store)


def test_pagemine_rejects_bad_params():
    with pytest.raises(WorkloadError):
        PageMineParams(num_pages=0)
    with pytest.raises(WorkloadError):
        PageMineParams(page_bytes=32)


def test_pagemine_page_size_changes_parallel_work():
    small = PageMineKernel(PageMineParams(num_pages=1, page_bytes=1024))
    large = PageMineKernel(PageMineParams(num_pages=1, page_bytes=8192))
    n_small = len(list(small.serial_iteration(0)))
    n_large = len(list(large.serial_iteration(0)))
    assert n_large > 4 * n_small


# -- ISort ----------------------------------------------------------------------

def test_isort_buckets_match_real_sort():
    kernel = ISortKernel(ISortParams(num_keys=4096, num_passes=4))
    from repro.fdt.runner import Application
    run_application(Application.single(kernel), StaticPolicy(4), small_cfg())
    np.testing.assert_array_equal(kernel.ranked_keys(),
                                  kernel.expected_sorted())


def test_isort_first_pass_only_counts_once():
    kernel = ISortKernel(ISortParams(num_keys=2048, num_passes=3))
    for i in range(kernel.total_iterations):
        for _op in kernel.serial_iteration(i):
            pass
    assert int(kernel.global_buckets.sum()) == 2048


def test_isort_counts_each_key_once_with_a_team():
    # Only the first of three passes counts; 32 threads split each tile.
    kernel = ISortKernel(ISortParams(num_keys=2048, num_passes=3))
    from repro.fdt.runner import Application
    run_application(Application.single(kernel), StaticPolicy(32),
                    MachineConfig.small(num_cores=32))
    assert int(kernel.global_buckets.sum()) == 2048
    np.testing.assert_array_equal(kernel.ranked_keys(),
                                  kernel.expected_sorted())


def test_isort_iterations_are_well_formed():
    kernel = ISortKernel(ISortParams(num_keys=2048, num_passes=2))
    for i in (0, kernel.total_iterations - 1):
        validate_program(kernel.serial_iteration(i))


def test_isort_rejects_bad_params():
    with pytest.raises(WorkloadError):
        ISortParams(num_keys=8, tiles_per_pass=12)
    with pytest.raises(WorkloadError):
        ISortParams(num_passes=0)


# -- GSearch --------------------------------------------------------------------

def test_gsearch_bfs_reaches_every_node():
    kernel = GSearchKernel(GSearchParams(num_nodes=512))
    assert kernel.nodes_expanded() == 512


def test_gsearch_batches_respect_batch_size():
    params = GSearchParams(num_nodes=512, batch_size=32)
    kernel = GSearchKernel(params)
    assert all(len(batch) <= 32 for batch, _d in kernel.batches)


def test_gsearch_has_two_critical_sections():
    kernel = GSearchKernel(GSearchParams(num_nodes=256))
    ops = validate_program(kernel.serial_iteration(0))
    lock_ids = [op.lock_id for op in ops if isinstance(op, Lock)]
    assert sorted(set(lock_ids)) == [0, 1]


def test_gsearch_visited_count_tracks_execution():
    kernel = GSearchKernel(GSearchParams(num_nodes=256))
    for i in range(kernel.total_iterations):
        for _op in kernel.serial_iteration(i):
            pass
    assert kernel.visited_count == 256


def test_gsearch_discovery_varies_across_iterations():
    kernel = GSearchKernel(GSearchParams(num_nodes=2048))
    discovered = [d for _b, d in kernel.batches]
    assert max(discovered) > min(discovered)


def test_gsearch_graph_is_deterministic():
    a = GSearchKernel(GSearchParams(num_nodes=256, seed=5))
    b = GSearchKernel(GSearchParams(num_nodes=256, seed=5))
    assert [len(x) for x, _ in a.batches] == [len(x) for x, _ in b.batches]


def test_gsearch_rejects_bad_params():
    with pytest.raises(WorkloadError):
        GSearchParams(out_degree=0)
    with pytest.raises(WorkloadError):
        GSearchParams(num_nodes=1)


def _reference_graph(params: GSearchParams) -> list[np.ndarray]:
    """The graph by definition: one draw and one np.unique per node."""
    rng = np.random.default_rng(params.seed)
    n = params.num_nodes
    adjacency = []
    for i in range(n):
        rand = rng.integers(0, n, size=params.out_degree - 1)
        adjacency.append(np.unique(np.concatenate([np.array([(i + 1) % n]),
                                                   rand])))
    return adjacency


def _reference_bfs(adjacency: list[np.ndarray], batch_size: int,
                   num_seeds: int) -> list[tuple[np.ndarray, int]]:
    """The search by definition, over numpy scalars and a bool array."""
    n = len(adjacency)
    visited = np.zeros(n, dtype=bool)
    queue: list[int] = []
    for s in (int(i * n / num_seeds) for i in range(num_seeds)):
        if not visited[s]:
            visited[s] = True
            queue.append(s)
    head, batches = 0, []
    while head < len(queue):
        batch = queue[head:head + batch_size]
        head += len(batch)
        discovered = []
        for node in batch:
            for succ in adjacency[node]:
                if not visited[int(succ)]:
                    visited[int(succ)] = True
                    discovered.append(int(succ))
        queue.extend(discovered)
        batches.append((np.array(batch, dtype=np.int64), len(discovered)))
    return batches


def _assert_arrays_identical(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", [5, 11])
@pytest.mark.parametrize("overrides", [
    {}, {"num_nodes": 1024}, {"out_degree": 1}, {"out_degree": 5}])
def test_gsearch_graph_and_search_match_their_definitions(overrides, seed):
    params = GSearchParams(**{"seed": seed, **overrides})
    graph, want_graph = _build_graph(params), _reference_graph(params)
    assert len(graph) == len(want_graph)
    for got, want in zip(graph, want_graph):
        _assert_arrays_identical(got, want)
    batches = _bfs_batches(graph, params.batch_size, params.num_seeds)
    want_batches = _reference_bfs(want_graph, params.batch_size,
                                  params.num_seeds)
    assert len(batches) == len(want_batches)
    for (got, found), (want, want_found) in zip(batches, want_batches):
        _assert_arrays_identical(got, want)
        assert found == want_found


# -- EP ----------------------------------------------------------------------------

def test_lcg_jump_ahead_matches_sequential():
    seq = _lcg_block(seed=99, start=0, count=50)
    jumped = _lcg_block(seed=99, start=25, count=25)
    np.testing.assert_allclose(seq[25:], jumped)


def _reference_lcg(seed: int, start: int, count: int) -> np.ndarray:
    """The LCG stream by definition: a jump to ``start`` by squaring the
    step, then one bigint step per number."""
    x, a, c, n = seed & _MASK, _LCG_A, _LCG_C, start
    while n:
        if n & 1:
            x = (a * x + c) & _MASK
        a, c, n = (a * a) & _MASK, (c * (a + 1)) & _MASK, n >> 1
    out = np.empty(count)
    for i in range(count):
        out[i] = x / 2.0**64
        x = (_LCG_A * x + _LCG_C) & _MASK
    return out


@given(seed=st.one_of(st.integers(0, 2**64 - 1), st.integers(2**64, 2**80)),
       start=st.integers(0, 2**20),
       count=st.sampled_from([0, 1, 2, 3, 2047, 2048, 4097]))
@settings(max_examples=40, deadline=None)
def test_lcg_block_matches_the_scalar_recurrence(seed, start, count):
    got = _lcg_block(seed, start, count)
    assert got.dtype == np.float64
    assert got.tobytes() == _reference_lcg(seed, start, count).tobytes()


@pytest.mark.parametrize("threads, order", [
    (1, "thread-major"), (3, "thread-major"), (32, "thread-major"),
    (32, "iteration-major"),
], ids=["1", "3", "32", "32-iteration-major"])
def test_ep_block_memo_survives_interleaved_blocks(threads, order):
    """Thread-major, each thread runs every block before the next thread
    starts, so the one-block memo is replaced at every call;
    iteration-major, the team shares each block as a run does.  Either
    way, every block after the first replays its op tuples, and tally
    and sum must still be exactly the per-chunk definition's."""
    params = EpParams(num_numbers=8192, block_size=2048)
    kernel = EpKernel(params)
    total = kernel.total_iterations
    if order == "iteration-major":
        drive_team(kernel, threads)
    else:
        for thread_id, factory in enumerate(
                kernel.factories(range(total), threads)):
            for _op in factory(thread_id, threads):
                pass
    # The float sum accumulates in call order.
    shares = [(block, tid) for block in range(total) for tid in range(threads)]
    if order == "thread-major":
        shares.sort(key=lambda share: share[1])
    want_sum = 0.0
    for block, thread_id in shares:
        chunk = static_chunk(params.block_size, threads, thread_id,
                             start=block * params.block_size)
        want_sum += float(_reference_lcg(params.seed, chunk.start,
                                         len(chunk)).sum())
    values = _reference_lcg(params.seed, 0, params.num_numbers)
    want_tally = np.bincount((values * 10).astype(int), minlength=10)
    _assert_arrays_identical(kernel.tally, want_tally)
    assert kernel.sum == want_sum


def test_ep_tally_matches_direct_evaluation():
    kernel = EpKernel(EpParams(num_numbers=8192, block_size=1024))
    for i in range(kernel.total_iterations):
        for _op in kernel.serial_iteration(i):
            pass
    np.testing.assert_array_equal(kernel.tally, kernel.expected_tally())


def test_ep_tally_is_team_size_invariant():
    cfg = small_cfg()
    from repro.fdt.runner import Application
    k2 = EpKernel(EpParams(num_numbers=8192, block_size=1024))
    run_application(Application.single(k2), StaticPolicy(4), cfg)
    np.testing.assert_array_equal(k2.tally, k2.expected_tally())


def test_ep_values_uniform_ish():
    kernel = EpKernel(EpParams(num_numbers=16384, block_size=2048))
    for i in range(kernel.total_iterations):
        for _op in kernel.serial_iteration(i):
            pass
    # Each decade should hold roughly a tenth of the numbers.
    frac = kernel.tally / kernel.tally.sum()
    assert np.all(frac > 0.05) and np.all(frac < 0.15)


def test_ep_rejects_bad_params():
    with pytest.raises(WorkloadError):
        EpParams(num_numbers=100, block_size=1024)


# -- op streams against hand-written references --------------------------------
#
# Each reference builds fresh ops from the kernel's definition on every
# call, so a replayed tuple is checked against the stream it stands for.


def _merge_reference(locals_base, global_base, tid, merge_instr):
    """Lock, 8 x (local Load, merge Compute, global RFO Store), Unlock."""
    ops = [Lock(0)]
    for k in range(8):
        ops += [Load(locals_base + tid * 8 * LINE + k * LINE),
                Compute(merge_instr), Store(global_base + k * LINE)]
    return ops + [Unlock(0)]


def _isort_reference(kernel, iteration, tid, team):
    p = kernel.params
    tile = static_chunk(p.num_keys, p.tiles_per_pass,
                        iteration % p.tiles_per_pass)
    chunk = static_chunk(len(tile), team, tid, start=tile.start)
    ops = []
    if len(chunk):
        first = (kernel._keys_base + chunk.start * 4) // LINE
        last = (kernel._keys_base + (chunk.stop - 1) * 4) // LINE
        for line in range(first, last + 1):
            ops += [Load(line * LINE), Compute(isort.SCAN_INSTR_PER_LINE)]
    ops += _merge_reference(kernel._locals_base, kernel._global_base, tid,
                            isort.MERGE_INSTR_PER_LINE)
    return ops + [BarrierWait(0)]


def _ep_reference(kernel, block, tid, team):
    ops = []
    chunk = static_chunk(kernel.params.block_size, team, tid)
    instr = len(chunk) * ep.GEN_INSTR_PER_NUMBER
    while instr > 0:
        ops.append(Compute(min(instr, 4096)))
        instr -= 4096
    ops.append(Lock(0))
    for k in range(3):
        ops += [Compute(ep.TALLY_INSTR // 3),
                Store(kernel._tally_base + k * LINE)]
    return ops + [Unlock(0), BarrierWait(0)]


def _pagemine_reference(kernel, page, tid, team):
    size = kernel.params.page_bytes
    chunk = static_chunk(size, team, tid, start=page * size)
    ops = []
    if len(chunk):
        for line in range(chunk.start // LINE, (chunk.stop - 1) // LINE + 1):
            ops += [Load(kernel._pages_base + line * LINE),
                    Compute(pagemine.SCAN_INSTR_PER_LINE)]
    ops += _merge_reference(kernel._locals_base, kernel._global_base, tid,
                            pagemine.MERGE_INSTR_PER_LINE)
    return ops + [BarrierWait(0)]


def test_cs_op_streams_match_static_chunk_reference():
    # Two ISort passes and several EP blocks and PageMine pages: every
    # replayed tuple (and merge tail) is checked on its repeats as well
    # as when it is built.  1000-byte pages split at unaligned offsets.
    cases = [
        (ISortKernel(ISortParams(num_keys=2048, num_passes=2)),
         _isort_reference),
        (EpKernel(EpParams(num_numbers=4096, block_size=1024)),
         _ep_reference),
        (PageMineKernel(PageMineParams(num_pages=3, page_bytes=1000)),
         _pagemine_reference),
    ]
    for kernel, reference in cases:
        for team in (1, 7, 32):
            for iteration in range(kernel.total_iterations):
                for tid in range(team):
                    got = list(kernel.team_iteration(iteration, tid, team))
                    assert got == reference(kernel, iteration, tid, team), (
                        kernel.name, team, iteration, tid)


def test_real_values_are_computed_on_every_call_not_only_when_ops_are_built():
    # PageMine's merge tail is replayed from the second page on; the
    # histogram must still count every page.  (EP's tally and sum are
    # checked in both call orders by the block-memo test above.)
    kernel = PageMineKernel(PageMineParams(num_pages=6, page_bytes=1000))
    drive_team(kernel)
    np.testing.assert_array_equal(kernel.global_histogram,
                                  kernel.expected_histogram())
