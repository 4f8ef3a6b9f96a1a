"""Experiment drivers reproducing every table and figure of the paper.

* :mod:`repro.eval.workloads` — the workload registry: for each
  evaluated kernel, how to build its baseline trace and its TMU model
  on a given input, and how to run its systems.
* :mod:`repro.eval.experiments` — one driver per paper artifact
  (Figure 3, Figures 10–15, Tables 4–6, the area results).
* :mod:`repro.eval.reporting` — text-table rendering.
"""

from .workloads import (
    WORKLOADS,
    Workload,
    WorkloadRun,
    run_workload,
)

__all__ = [
    "WORKLOADS",
    "Workload",
    "WorkloadRun",
    "run_workload",
]
