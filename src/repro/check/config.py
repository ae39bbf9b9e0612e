"""What ``repro check`` registers with: the checked run's default team
and the teams it accepts.

Nothing here imports the sanitizer or the analyzer, so mounting the
command loads neither.
"""

from repro.errors import ConfigError
from repro.sim.config import MachineConfig

#: Default team size for checks.  Races and ordering violations need at
#: least two threads; four keeps the run cheap while exercising real
#: contention on every lock and barrier.
DEFAULT_THREADS = 4


def check_team(threads: int | None, config: MachineConfig) -> None:
    """Refuse a checked team ``config`` cannot run as asked (``None`` is
    the default team).

    Raises:
        ConfigError: ``threads`` is below 2 — a team of one has nobody
            to race or deadlock with — or above the machine's hardware
            thread slots, a team that would run clamped.
    """
    if threads is None:
        return
    if threads < 2:
        raise ConfigError(
            f"a checked team needs at least 2 threads, not {threads}")
    slots = config.num_thread_slots
    if threads > slots:
        raise ConfigError(
            f"a static team of {threads} threads exceeds the machine's "
            f"{slots} hardware thread slots")
