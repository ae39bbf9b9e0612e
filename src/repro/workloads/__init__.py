"""The twelve evaluated workloads (paper Table 2).

Importing this package registers every workload; look them up with
:func:`get` or enumerate Table 2 with :func:`all_specs`.
"""

from repro.workloads.base import (
    Category,
    WorkloadSpec,
    all_specs,
    get,
)

# Importing the modules registers the specs (Table 2 order).
from repro.workloads import pagemine  # noqa: F401  (CS-limited)
from repro.workloads import isort  # noqa: F401
from repro.workloads import gsearch  # noqa: F401
from repro.workloads import ep  # noqa: F401
from repro.workloads import ed  # noqa: F401  (BW-limited)
from repro.workloads import convert  # noqa: F401
from repro.workloads import transpose  # noqa: F401
from repro.workloads import mtwister  # noqa: F401
from repro.workloads import bt  # noqa: F401  (scalable)
from repro.workloads import mg  # noqa: F401
from repro.workloads import bscholes  # noqa: F401
from repro.workloads import sconv  # noqa: F401

__all__ = ["Category", "WorkloadSpec", "all_specs", "get"]
