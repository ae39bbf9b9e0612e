"""Isolation for one benchmark run: paths, environment, temp dirs, CPUs.

Importing this module puts ``src/`` on ``sys.path`` (the package is not
installed in the image) and fails with ``ImportError`` when the checkout
has no ``src/repro`` — a directory holding only the benchmark cannot run
it, and says so by exiting non-zero.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: Spans, reports and per-run temp dirs land here (git-ignored).  Temp
#: dirs stay inside the checkout on purpose: the benchmark reads and
#: writes nowhere else.
RESULTS = HERE / "results"

if not (SRC / "repro" / "__init__.py").is_file():
    raise ImportError(f"no repro package under {SRC}: the benchmark "
                      "measures this repository and cannot run without it")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

#: Variables that would redirect the cache, switch on telemetry sinks or
#: arm fault plans behind the benchmark's back.
_SCRUBBED = ("REPRO_CACHE_DIR", "REPRO_OBS_SPANS", "REPRO_FAULT_PLAN")


def scrub_environment() -> None:
    """Remove every ``repro`` knob from this process's environment.

    Children inherit the result.  ``REPRO_SLOW_PATHS`` is refused, not
    removed: someone set it on purpose, and timing the reference paths
    under the benchmark's names would poison every comparison.
    """
    if os.environ.get("REPRO_SLOW_PATHS", "") not in ("", "0"):
        raise SystemExit("REPRO_SLOW_PATHS is set: the benchmark times the "
                         "fast paths only; unset it and run again")
    for name in list(os.environ):
        if name in _SCRUBBED or name.startswith("REPRO_LOG_"):
            del os.environ[name]
    os.environ["PYTHONPATH"] = str(SRC)


@contextmanager
def fresh_dir(prefix: str) -> Iterator[Path]:
    """A new empty directory under ``results/tmp``, removed on exit.

    Every cache and run registry the benchmark touches lives in one of
    these — never ``~/.cache/repro``.
    """
    parent = RESULTS / "tmp"
    parent.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix + "-", dir=parent))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def pin_to_one_cpu() -> None:
    """Pin this process, and so every child it starts, to one CPU.

    The load generator and the server share it: one closed-loop client
    means they never run at the same moment, and on the 2-vCPU sandbox
    a CPU each cost a wake-up from idle per hop (p50 0.90-0.97 ms
    against 0.64-0.72 ms on one CPU) while the noise stayed the same.
    The other CPU is left to the rest of the machine.  A 1-CPU host is
    left as it is.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) >= 2:
        os.sched_setaffinity(0, {cpus[-1]})
