"""GSearch — parallel search in a directed graph, CS-limited.

From the OpenMP source-code repository: threads expand frontier nodes of
a directed graph in parallel.  The kernel has *two* critical sections,
exactly as the paper describes (Section 4.3): one guarding the shared
work queue (dequeued/enqueued nodes) and one guarding the visited map.
The number of newly discovered nodes varies from batch to batch, so the
critical-section fraction fluctuates across iterations — this is the
workload the paper uses to show the training stability rule earning its
keep (3.84 % average CS time; SAT trains 1 % of iterations and picks 5).

Paper input: 10K nodes.  Repro input: an 8K-node pseudo-random directed
graph (deterministic seed, out-degree ~8), frontier batches of 64 nodes.
The search order is computed for real by an actual BFS and verified by
tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import WorkloadError
from repro.fdt.kernel import TeamParallelKernel
from repro.fdt.runner import Application
from repro.isa.ops import BarrierWait, Compute, Load, Lock, Op, Store, Unlock
from repro.runtime.parallel import static_chunk
from repro.workloads.base import LINE, AddressSpace, Category, WorkloadSpec, register

#: Per-node expansion cost: compare key, walk adjacency.
EXPAND_INSTR_PER_NODE = 120
#: Queue maintenance per critical-section entry: head/tail bookkeeping
#: plus compaction/prioritization of the pending work list — constant
#: per thread, which is what makes total CS time grow linearly with the
#: team (the Eq. 1 premise).
ENQUEUE_FIXED_INSTR = 1150
#: Appending one discovered node id (ids are packed 2 B each).
ENQUEUE_INSTR_PER_NODE = 1
#: Visited-map update per critical-section entry (summary word plus the
#: batch's bits).
MARK_FIXED_INSTR = 30

_QUEUE_LOCK = 0
_VISITED_LOCK = 1
_EXPAND_BARRIER = 0
_BATCH_BARRIER = 1
#: Ops are immutable values, so each constant one is built once here.
_EXPAND, _MARK = Compute(EXPAND_INSTR_PER_NODE), Compute(MARK_FIXED_INSTR)
_LOCK_QUEUE, _UNLOCK_QUEUE = Lock(_QUEUE_LOCK), Unlock(_QUEUE_LOCK)
_LOCK_VISITED, _UNLOCK_VISITED = Lock(_VISITED_LOCK), Unlock(_VISITED_LOCK)
_WAIT_EXPAND = BarrierWait(_EXPAND_BARRIER)
_WAIT_BATCH = BarrierWait(_BATCH_BARRIER)


@dataclass(frozen=True, slots=True)
class GSearchParams:
    """Input set for GSearch."""

    num_nodes: int = 8192
    out_degree: int = 3
    batch_size: int = 64
    #: The search starts from many query nodes at once (rsearchk searches
    #: for multiple keys), so the work queue is full from the first batch.
    num_seeds: int = 128
    seed: int = 5

    def __post_init__(self) -> None:
        if self.num_nodes < 2:
            raise WorkloadError("GSearch needs at least two nodes")
        if self.batch_size < 1:
            raise WorkloadError("GSearch batch size must be positive")
        if not 1 <= self.num_seeds <= self.num_nodes:
            raise WorkloadError("seed count must be in [1, num_nodes]")
        if self.out_degree < 1:
            raise WorkloadError("GSearch out-degree must be positive")


def _build_graph(params: GSearchParams) -> list[np.ndarray]:
    """Deterministic random digraph with a reachable spine.

    Node i always points at node i+1 (so the whole graph is reachable
    from node 0) plus ``out_degree - 1`` random successors.
    """
    rng = np.random.default_rng(params.seed)
    n = params.num_nodes
    # One (n, out_degree - 1) draw is the stream of n one-row draws, and a
    # row-wise sort with repeats masked out is np.unique per row.
    rand = rng.integers(0, n, size=(n, params.out_degree - 1))
    rows = np.sort(np.column_stack([(np.arange(n) + 1) % n, rand]), axis=1)
    keep = np.ones(rows.shape, dtype=bool)
    keep[:, 1:] = rows[:, 1:] != rows[:, :-1]
    return np.split(rows[keep], np.cumsum(keep.sum(axis=1))[:-1])


def _bfs_batches(adjacency: list[np.ndarray], batch_size: int,
                 num_seeds: int) -> list[tuple[np.ndarray, int]]:
    """The real search: FIFO expansion in fixed-size batches.

    The queue starts with ``num_seeds`` evenly-spread query nodes, so the
    very first batches are already full — the steady work-list regime the
    kernel spends its life in.  Returns one entry per batch: (nodes
    expanded, count newly discovered).  The discovered count is what
    makes the per-iteration CS time vary.
    """
    n = len(adjacency)
    successors = [row.tolist() for row in adjacency]
    # Consecutive seeds are n / num_seeds >= 1 apart, so all distinct.
    queue = [int(i * n / num_seeds) for i in range(num_seeds)]
    visited = [False] * n
    for s in queue:
        visited[s] = True
    head = 0
    batches = []
    while head < len(queue):
        batch = queue[head:head + batch_size]
        head += len(batch)
        discovered = []
        for node in batch:
            for succ in successors[node]:
                if not visited[succ]:
                    visited[succ] = True
                    discovered.append(succ)
        queue.extend(discovered)
        batches.append((np.array(batch, dtype=np.int64), len(discovered)))
    return batches


class GSearchKernel(TeamParallelKernel):
    """One iteration = expansion of one frontier batch."""

    name = "gsearch"

    def __init__(self, params: GSearchParams,
                 space: AddressSpace | None = None) -> None:
        self.params = params
        space = space or AddressSpace()
        self.adjacency = _build_graph(params)
        #: Real BFS expansion schedule (test oracle: covers every node).
        self.batches = _bfs_batches(self.adjacency, params.batch_size,
                                    params.num_seeds)
        bytes_per_node = max(LINE, params.out_degree * 8)
        self._adj_base = space.alloc(params.num_nodes * bytes_per_node)
        self._adj_stride = bytes_per_node
        self._queue_base = space.alloc(params.num_nodes * 8 + LINE)
        self._visited_base = space.alloc(params.num_nodes + LINE)
        self._visited_count = 0

    @property
    def total_iterations(self) -> int:
        return len(self.batches)

    def nodes_expanded(self) -> int:
        """Total nodes the schedule expands (== num_nodes when connected)."""
        return sum(len(batch) for batch, _d in self.batches)

    def team_iteration(self, iteration: int, thread_id: int,
                       num_threads: int) -> Iterator[Op]:
        batch, discovered = self.batches[iteration]
        chunk = static_chunk(len(batch), num_threads, thread_id)
        my_nodes = batch[chunk.start:chunk.stop]
        my_discovered = discovered // num_threads + (
            1 if thread_id < discovered % num_threads else 0)

        # Parallel part: expand this thread's share of the frontier.
        for node in my_nodes:
            yield Load(self._adj_base + int(node) * self._adj_stride)
            yield _EXPAND

        # The expansion phase ends at a barrier before the shared
        # structures are updated (phase-then-merge, as in the OpenMP
        # source-repository kernel), so every thread contends for the
        # queue lock at once — the serialization Eq. 1 models.
        yield _WAIT_EXPAND

        # Critical section 1: append discovered nodes to the work queue.
        # The queue-control line is stored (read-for-ownership) every
        # time; appended ids are packed two bytes each, so the data
        # traffic is small next to the fixed bookkeeping.
        yield _LOCK_QUEUE
        control = self._queue_base
        yield Compute(ENQUEUE_FIXED_INSTR
                      + ENQUEUE_INSTR_PER_NODE * my_discovered)
        # The circular tail block stays hot: appends land in the lines
        # the previous holder just wrote.
        tail = self._queue_base + LINE + (iteration % 8) * LINE
        for k in range(-(-my_discovered * 2 // LINE) or 1):
            yield Store(tail + (k % 8) * LINE)
        yield Store(control)
        yield _UNLOCK_QUEUE

        # Critical section 2: update the visited summary for the batch.
        yield _LOCK_VISITED
        yield _MARK
        if len(my_nodes):
            yield Store(self._visited_base + (int(my_nodes[0]) // LINE) * LINE)
        yield Store(self._visited_base)
        yield _UNLOCK_VISITED
        if thread_id == 0:
            self._visited_count += len(batch)

        yield _WAIT_BATCH

    @property
    def visited_count(self) -> int:
        """Nodes marked visited by executed iterations."""
        return self._visited_count


def build(scale: float = 1.0, seed: int = 5) -> Application:
    """GSearch application; ``scale`` shrinks the graph."""
    nodes = max(1024, int(8192 * scale))
    kernel = GSearchKernel(GSearchParams(num_nodes=nodes, seed=seed))
    return Application.single(kernel, name="GSearch")


register(WorkloadSpec(
    name="GSearch",
    category=Category.CS_LIMITED,
    description="Search in directed graphs (two critical sections)",
    paper_input="10K nodes",
    repro_input="8K-node digraph, out-degree ~3, 128-seed multi-source",
    build=build,
))
