"""What ``repro check`` registers with: the checked run's default team.

Nothing here imports the sanitizer or the analyzer, so mounting the
command loads neither.
"""

#: Default team size for checks.  Races and ordering violations need at
#: least two threads; four keeps the run cheap while exercising real
#: contention on every lock and barrier.
DEFAULT_THREADS = 4
