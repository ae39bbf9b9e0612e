"""What ``repro check`` registers with: the checked run's default team
and the smallest team it accepts.

Nothing here imports the sanitizer or the analyzer, so mounting the
command loads neither.
"""

from repro.errors import ConfigError

#: Default team size for checks.  Races and ordering violations need at
#: least two threads; four keeps the run cheap while exercising real
#: contention on every lock and barrier.
DEFAULT_THREADS = 4


def check_team(threads: int | None) -> None:
    """Refuse a checked team below 2 threads (``None`` is the default).

    Raises:
        ConfigError: ``threads`` is below 2 — a team of one has nobody
            to race or deadlock with.
    """
    if threads is not None and threads < 2:
        raise ConfigError(
            f"a checked team needs at least 2 threads, not {threads}")
