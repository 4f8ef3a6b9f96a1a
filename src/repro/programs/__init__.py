"""TMU programs: the Table 4 kernel-to-hardware mappings.

Each module provides up to two entry points per kernel variant:

* ``build_*_program(...)`` — an exact, runnable
  :class:`repro.tmu.program.Program` for the functional engine,
  together with the core-side callback closures needed to compute the
  kernel.  These power the Table 4 completeness tests and the examples.
* ``*_timing_model(...)`` — a fast, vectorized
  :class:`repro.sim.machine.TmuWorkloadModel` describing the same
  workload's TMU/core split for the interval timing model.  Tests
  cross-check the analytic counts against the functional engine on
  small inputs.  The TMU walks the operand arrays the baseline reads,
  so a model takes every address stream the baseline also issues
  (traversal walks, and result writes where the core writes the
  baseline's result) from the baseline's operand-memoized builder in
  :mod:`repro.kernels`: each stream content is one index object at
  one base and stride.

The registry at the bottom maps Table 4 row names to builders.
"""

from .spmv import build_spmv_program, spmv_timing_model
from .spmspv import build_spmspv_program
from .spmm import build_spmm_program
from .spmspm import build_spmspm_program, spmspm_timing_model
from .spkadd import build_spkadd_program, spkadd_timing_model
from .pagerank import pagerank_timing_model
from .triangle import build_triangle_program, triangle_timing_model
from .mttkrp import build_mttkrp_program, mttkrp_timing_model
from .cpals import cpals_timing_model
from .sptc import build_sptc_program, sptc_timing_model
from .spttv import build_spttv_program
from .spttm import build_spttm_program

#: Table 4 rows → functional program builders (arguments differ per
#: kernel; see each builder's docstring).
TABLE4_BUILDERS = {
    "SpMV P0": build_spmv_program,
    "SpMV P1": build_spmv_program,
    "SpMSpV": build_spmspv_program,
    "SpMM P0": build_spmm_program,
    "SpMM P1": build_spmm_program,
    "SpMM P2": build_spmm_program,
    "SpMSpM P0": build_spmspm_program,
    "SpMSpM P2": build_spmspm_program,
    "SpKAdd": build_spkadd_program,
    "PageRank": build_spmv_program,   # PR's accelerated part is SpMV
    "TriangleCount": build_triangle_program,
    "MTTKRP P1": build_mttkrp_program,
    "MTTKRP P2": build_mttkrp_program,
    "SpTC": build_sptc_program,
    "SpTTV": build_spttv_program,
    "SpTTM": build_spttm_program,
}

__all__ = [
    "TABLE4_BUILDERS",
    "build_spmv_program",
    "spmv_timing_model",
    "build_spmspv_program",
    "build_spmm_program",
    "build_spmspm_program",
    "spmspm_timing_model",
    "build_spkadd_program",
    "spkadd_timing_model",
    "pagerank_timing_model",
    "build_triangle_program",
    "triangle_timing_model",
    "build_mttkrp_program",
    "mttkrp_timing_model",
    "cpals_timing_model",
    "build_sptc_program",
    "sptc_timing_model",
    "build_spttv_program",
    "build_spttm_program",
]
