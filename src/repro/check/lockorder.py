"""Lock-order (potential deadlock) analysis.

Each time an agent requests lock ``b`` while holding lock ``a``, the
analysis records the edge ``a -> b`` in the acquires-while-holding
graph.  A cycle in that graph means two orderings coexist — the classic
deadlock recipe — even when the FIFO grant order happened to dodge the
deadlock in this particular run.  Cycles are found at the end of the run
from the strongly connected components of the graph.
"""

from __future__ import annotations

from typing import Collection, Iterator

from repro.check.findings import LOCK_ORDER, Finding, FindingLog


class LockOrderAnalyzer:
    """Builds the acquires-while-holding graph and reports its cycles."""

    def __init__(self) -> None:
        #: (held, wanted) -> witness details of the first observation.
        self._edges: dict[tuple[int, int], dict[str, int]] = {}
        #: Cycles counted but not listed by the last :meth:`finish`.
        self.dropped = 0

    def on_lock_request(self, lock_id: int, agent: int,
                        held: list[int], now: int) -> None:
        """Record edges ``h -> lock_id`` for every currently held ``h``."""
        for h in held:
            if h == lock_id:
                continue  # re-entrance is the discipline lint's business
            edge = (h, lock_id)
            if edge not in self._edges:
                self._edges[edge] = {"agent": agent, "cycle": now}

    def finish(self) -> list[Finding]:
        """Cycle findings from the accumulated graph (one per SCC)."""
        log = FindingLog()
        for component, cycle, witnesses in lock_order_cycles(self._edges):
            edges = [{"held": a, "wanted": b, **self._edges[(a, b)]}
                     for a, b in witnesses]
            path = " -> ".join(str(lock) for lock in cycle)
            log.add(Finding(
                analysis=LOCK_ORDER,
                kind="lock-order-cycle",
                message=(f"potential deadlock: locks are acquired in a "
                         f"cycle {path} (each edge 'a -> b' means some "
                         f"thread requested b while holding a)"),
                details={
                    "locks": sorted(component),
                    "cycle": cycle,
                    "edges": edges,
                },
            ))
        self.dropped = log.dropped
        return log.findings


def lock_order_cycles(
        edges: Collection[tuple[int, int]],
) -> Iterator[tuple[set[int], list[int], list[tuple[int, int]]]]:
    """The cycles of an acquires-while-holding graph, one per strongly
    connected component of two or more locks.

    ``edges`` are ``(held, wanted)`` pairs, self-edges already excluded.
    Yields ``(component, cycle, witnesses)``: the locks involved, a short
    simple cycle through them as ``[a, ..., a]``, and the edges of
    ``edges`` along that cycle.  The dynamic analysis above and the
    static pass (:mod:`repro.check.static.locks`) both report from this,
    so they can never disagree about what a cycle is.
    """
    adjacency: dict[int, list[int]] = {}
    for a, b in edges:
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, [])
    for component in _strongly_connected(adjacency):
        if len(component) < 2:
            continue
        cycle = _cycle_within(adjacency, component)
        yield component, cycle, [
            edge for edge in zip(cycle, cycle[1:]) if edge in edges]


def _strongly_connected(adjacency: dict[int, list[int]]) -> list[set[int]]:
    """Tarjan's SCC algorithm, iterative (lock graphs are tiny, but the
    sanitizer must not die on adversarial input via recursion limits)."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    components: list[set[int]] = []
    counter = 0

    for root in adjacency:
        if root in index:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            node, edge_i = work[-1]
            if edge_i == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            successors = adjacency[node]
            advanced = False
            while edge_i < len(successors):
                nxt = successors[edge_i]
                edge_i += 1
                if nxt not in index:
                    work[-1] = (node, edge_i)
                    work.append((nxt, 0))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if low[node] == index[node]:
                component: set[int] = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                components.append(component)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return components


def _cycle_within(adjacency: dict[int, list[int]],
                  component: set[int]) -> list[int]:
    """A short simple cycle inside one SCC, as ``[a, ..., a]``."""
    start = min(component)
    # BFS back to the start node, restricted to the component.
    parents: dict[int, int] = {}
    frontier = [start]
    while frontier:
        nxt_frontier: list[int] = []
        for node in frontier:
            for nxt in adjacency[node]:
                if nxt == start:
                    path = [start]
                    while node != start:
                        path.append(node)
                        node = parents[node]
                    path.append(start)
                    path.reverse()
                    return path
                if nxt in component and nxt not in parents:
                    parents[nxt] = node
                    nxt_frontier.append(nxt)
        frontier = nxt_frontier
    # Unreachable for a genuine SCC; defend anyway.
    return [start, start]  # pragma: no cover
