"""What ``repro chaos`` registers with: the chaos run's defaults.

The harness (:mod:`repro.faults.chaos`) takes its defaults from here,
so mounting the command imports neither the harness nor the job layer.
"""

#: Table 2 workloads, static team and input scale of the chaos specs.
CHAOS_WORKLOADS = ("PageMine", "ISort")
CHAOS_THREADS = 2
CHAOS_SCALE = 0.05
#: Worker processes of the batch leg.
CHAOS_JOBS = 1
#: Default request-retry budget per spec in serve mode — generous on
#: purpose: retrying is the client's half of the recovery contract.
SERVE_ATTEMPTS = 25
