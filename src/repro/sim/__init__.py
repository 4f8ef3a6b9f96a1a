"""The timing-model substrate, per core of the paper's symmetric multicore.

The paper evaluates the TMU with gem5 full-system simulation; this
package replaces gem5 with a Python interval/event model that reproduces
the first-order effects the paper's analysis rests on:

* :mod:`repro.sim.cache` — set-associative caches with LRU replacement
  and a bounded MSHR count.
* :mod:`repro.sim.memsys` — the three-level hierarchy plus HBM2e
  channel bandwidth, assembled per :class:`repro.config.MachineConfig`.
* :mod:`repro.sim.core` — an interval-analysis out-of-order core model
  producing the committing / frontend-stall / backend-stall breakdown of
  Figures 3 and 11.
* :mod:`repro.sim.trace` — the kernel characterization record
  (instruction mix + address streams) the core model consumes.
* :mod:`repro.sim.prefetcher` — stride and indirect-memory-prefetcher
  (IMP) models for the Figure 15 comparison.
* :mod:`repro.sim.machine` — whole-system runs: software baseline,
  TMU-accelerated, Single-Lane and IMP variants.
* :mod:`repro.sim.stats` — derived metrics (roofline, ratios).
"""

from .cache import Cache, CacheStats
from .core import CycleBreakdown, IntervalCoreModel
from .machine import (
    SystemResult,
    TmuWorkloadModel,
    run_baseline,
    run_imp,
    run_single_lane,
    run_tmu,
)
from .memsys import MemoryHierarchy, AccessProfile
from .prefetcher import ImpConfig, apply_imp
from .trace import AccessStream, KernelTrace

__all__ = [
    "Cache",
    "CacheStats",
    "CycleBreakdown",
    "IntervalCoreModel",
    "SystemResult",
    "TmuWorkloadModel",
    "run_baseline",
    "run_imp",
    "run_single_lane",
    "run_tmu",
    "MemoryHierarchy",
    "AccessProfile",
    "ImpConfig",
    "apply_imp",
    "AccessStream",
    "KernelTrace",
]
