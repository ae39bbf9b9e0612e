"""Eraser-style lockset race detection (Savage et al., SOSP 1997).

Every shared address carries a candidate lockset: the locks that were
held on *every* access since the address became shared.  When the
candidate set goes empty on a written address, no single lock protects
it — a data race.

Two adaptations for simulated op-stream programs:

* **Barrier epochs.**  The paper's kernels synchronize phases with
  barriers, not locks; plain Eraser would flag every
  write-barrier-write sequence.  The sanitizer bumps a global epoch at
  every full-team barrier release and region boundary (both are
  happens-before fences for the whole team here), and an address whose
  last access predates the current epoch restarts its state machine.
* **Write-write only.**  Workload generators touch line-aligned
  representative addresses, so a load and a store of the same line by
  different threads usually models false sharing rather than a race.
  Only an address with at least two writers is reported.

The detector has no ignore list: an intentionally unprotected access is
a filter on ``details["address"]`` of the report (docs/check.md), so
what was observed and what the caller chose not to look at stay apart.
"""

from __future__ import annotations

from repro.check.findings import RACE, AccessSite, Finding, FindingLog

# Per-address state machine (Eraser Figure 2).
_EXCLUSIVE = 0  # one thread has touched it (initialization pattern)
_SHARED = 1  # read by several threads, no report yet
_SHARED_MOD = 2  # written while shared: report on empty lockset

_EMPTY: frozenset[int] = frozenset()


class _AddrState:
    """Race-detector state of one byte address."""

    __slots__ = ("state", "owner", "lockset", "epoch", "written",
                 "writers", "first", "prev", "reported")

    def __init__(self, agent: int, is_store: bool, epoch: int,
                 site: AccessSite) -> None:
        self.reset(agent, is_store, epoch, site)
        self.reported = False

    def reset(self, agent: int, is_store: bool, epoch: int,
              site: AccessSite) -> None:
        self.state = _EXCLUSIVE
        self.owner = agent
        self.lockset: frozenset[int] = _EMPTY
        self.epoch = epoch
        self.written = is_store
        self.writers = {agent} if is_store else set()
        self.first = site
        self.prev = site


class LocksetRaceDetector(FindingLog):
    """Consumes accesses with held-lock sets; produces race findings."""

    def __init__(self) -> None:
        super().__init__()
        self._addrs: dict[int, _AddrState] = {}

    def on_access(self, agent: int, addr: int, is_store: bool, epoch: int,
                  held: frozenset[int], site: AccessSite) -> None:
        """Advance ``addr``'s state machine for one access.

        ``held`` is the set of lock ids ``agent`` holds at the access;
        ``epoch`` is the sanitizer's barrier epoch.
        """
        st = self._addrs.get(addr)
        if st is None:
            self._addrs[addr] = _AddrState(agent, is_store, epoch, site)
            return
        if st.epoch != epoch:
            # All earlier accesses are barrier-ordered before this one.
            st.reset(agent, is_store, epoch, site)
            return

        if st.state == _EXCLUSIVE:
            if agent == st.owner:
                st.written = st.written or is_store
                if is_store:
                    st.writers.add(agent)
                st.prev = site
                return
            # Second thread: the address is genuinely shared from here on.
            st.lockset = held
            st.state = _SHARED_MOD if is_store else _SHARED
        else:
            st.lockset = st.lockset & held
            if is_store:
                st.state = _SHARED_MOD
        if is_store:
            st.writers.add(agent)
        self._maybe_report(addr, st, site)
        st.prev = site

    def _maybe_report(self, addr: int, st: _AddrState,
                      site: AccessSite) -> None:
        if st.reported or st.state != _SHARED_MOD or st.lockset:
            return
        if len(st.writers) < 2:
            return
        st.reported = True
        sites = [st.first]
        if st.prev != st.first:
            sites.append(st.prev)
        if site != st.prev:
            sites.append(site)
        agents = sorted({s.agent for s in sites} | st.writers)
        self.add(Finding(
            analysis=RACE,
            kind="empty-lockset",
            message=(f"data race on address {addr:#x}: candidate lockset "
                     f"is empty after {site}; agents {agents} access it "
                     f"with no common lock"),
            details={
                "address": addr,
                "address_hex": f"{addr:#x}",
                "agents": agents,
                "writers": sorted(st.writers),
                "sites": [s.to_dict() for s in sites],
            },
        ))
