"""The one in-simulation observer protocol.

The machine components (:class:`~repro.sim.machine.Machine`,
:class:`~repro.sim.core.Core`, :class:`~repro.sim.memsys.MemorySystem`,
:class:`~repro.runtime.locks.LockManager`,
:class:`~repro.runtime.barriers.BarrierManager`) and the FDT layer
(:class:`~repro.fdt.training.TrainingLog`,
:class:`~repro.fdt.policies.FdtPolicy`,
:func:`~repro.fdt.runner.run_application`) report events to a single
:class:`SimObserver`, guarded by one ``is None`` test per site — the
whole cost when nothing is attached.  The thread sanitizer
(``repro.check``) and the trace recorder (``repro.trace``) are plug-ins
of this protocol, handed to ``Machine(config, observers=[...])``, which
holds ``None``, the one observer, or a :class:`FanOut` over several.

Observers are pure: they must not schedule events or mutate machine
state, and no component may choose its code path by whether one is
attached, so simulated results are bit-identical under every observer
subset (``tests/test_parity.py``).

``agent`` is always the hardware thread slot (the id locks and barriers
are keyed by); ``core`` is a physical core index; cycle arguments are
absolute machine cycles, ``now`` being the cycle at which the issuing
event is processed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - avoid runtime import cycles
    from repro.fdt.estimators import Decision
    from repro.fdt.training import TrainingSample
    from repro.isa.ops import CounterKind
    from repro.sim.machine import Machine


class SimObserver:
    """No-op base implementation of every event.

    Subclass and override what you need.  Keeping a concrete no-op base
    (rather than an ABC) lets tests attach partial observers.
    """

    def on_attach(self, machine: "Machine") -> None:
        """Called once, when ``machine`` (built with this observer) is assembled."""

    def on_detach(self) -> None:
        """The machine is closing (``Machine.close``): let go of it, so
        an observer that outlives the run never keeps its caches."""

    # -- region / thread lifecycle -----------------------------------------

    def on_region_begin(self, num_threads: int, now: int) -> None:
        """A parallel region with ``num_threads`` threads is starting."""

    def on_region_end(self, now: int) -> None:
        """The region completed, join overhead included (not called
        when the run aborts)."""

    def on_thread_start(self, core: int, agent: int, now: int) -> None:
        """``agent``'s program begins executing on ``core``."""

    def on_thread_exit(self, core: int, agent: int, now: int) -> None:
        """``agent``'s program is exhausted."""

    # -- core execution ------------------------------------------------------

    def on_compute(self, core: int, agent: int, start: int,
                   end: int) -> None:
        """Compute occupies ``core`` over ``[start, end)``: one call per
        homogeneous run of Compute ops (per op on the reference and SMT
        step paths)."""

    def on_read_counter(self, agent: int, kind: "CounterKind",
                        now: int) -> None:
        """``agent`` read a performance counter."""

    # -- memory --------------------------------------------------------------

    def on_access(self, agent: int, addr: int, is_store: bool,
                  now: int) -> None:
        """``agent`` issued a load (``is_store=False``) or store."""

    def on_mem_access(self, core: int, line: int, is_write: bool,
                      start: int, end: int) -> None:
        """``core`` stalled on the memory system over ``[start, end)``
        resolving ``line`` (L2 misses and coherence upgrades; private
        cache hits are not stalls and are not reported)."""

    # -- locks ---------------------------------------------------------------

    def on_lock_request(self, lock_id: int, agent: int, now: int) -> None:
        """``agent`` issued a Lock op (grant may come later, or never)."""

    def on_lock_spin_begin(self, lock_id: int, agent: int,
                           now: int) -> None:
        """``agent`` queued on a held lock and begins spinning."""

    def on_lock_acquired(self, lock_id: int, agent: int,
                         grant: int) -> None:
        """The lock manager made ``agent`` the holder of ``lock_id``
        from cycle ``grant``."""

    def on_unlock_request(self, lock_id: int, agent: int, now: int) -> None:
        """``agent`` issued an Unlock op (called before validation, so it
        fires even when the release is about to abort the run)."""

    def on_lock_released(self, lock_id: int, agent: int, now: int) -> None:
        """``agent`` released ``lock_id`` (validation passed)."""

    # -- barriers ------------------------------------------------------------

    def on_barrier_arrive(self, barrier_id: int, agent: int,
                          team_size: int, now: int) -> None:
        """``agent`` arrived at ``barrier_id`` expecting ``team_size``
        and begins waiting."""

    def on_barrier_release(self, barrier_id: int,
                           releases: list[tuple[int, int]],
                           now: int) -> None:
        """The last arriver completed a generation; ``releases`` lists
        ``(agent, release_cycle)`` for every participant.  All
        pre-barrier events of the participants have already fired and
        all their post-barrier events fire later, so this is a
        happens-before fence."""

    # -- FDT -----------------------------------------------------------------

    def on_training_sample(self, kernel_name: str,
                           sample: "TrainingSample") -> None:
        """The instrumented training loop recorded one iteration.

        No cycle argument: :class:`~repro.fdt.training.TrainingLog` has
        no clock of its own — observers with machine access may read
        ``machine.events.now``."""

    def on_fdt_decision(self, decision: "Decision") -> None:
        """A policy chose ``decision.chosen_threads`` for a kernel."""

    def on_app_begin(self, app_name: str, policy_name: str,
                     now: int) -> None:
        """An application (sequence of kernels) starts executing."""

    def on_kernel_complete(self, kernel_name: str, threads: int,
                           training_cycles: int, execution_cycles: int,
                           now: int) -> None:
        """One kernel of the application ran to completion."""


class FanOut(SimObserver):
    """Forwards every event to each of ``observers``, in order."""

    def __init__(self, *observers: SimObserver) -> None:
        self.observers = observers


def _forwarder(event: str):
    def forward(self: FanOut, *args) -> None:
        for observer in self.observers:
            getattr(observer, event)(*args)
    forward.__name__ = event
    return forward


for _event in [n for n in vars(SimObserver) if n.startswith("on_")]:
    setattr(FanOut, _event, _forwarder(_event))
