"""Software baseline kernels (the paper's TACO/SVE baselines).

Each kernel a figure evaluates has a ``characterize_*`` function that
derives the baseline's committed instruction mix and ordered
memory-address streams for the timing model (:mod:`repro.sim`), from
operand-memoized stream builders the TMU timing models share.

The functional check of every Table 4 kernel is the einsum it
implements, evaluated by the tests over dense views of the operands, so
this package keeps a functional kernel only where something outside
the tests runs it:

* :func:`spkadd` — K-matrix disjunctive addition (DCSR), the software
  side of ``examples/kway_merge_spkadd.py``.
* :func:`mttkrp` — COO matricized tensor times Khatri-Rao, which
  :func:`cp_als` calls and ``examples/tensor_decomposition.py`` runs.
* :func:`cp_als` — CP-ALS tensor decomposition (GenTen-style), the
  model ``examples/tensor_decomposition.py`` fits.
* :func:`triangle_count` — masked-SpMSpM triangle counting, which gives
  TC's timing model its hit count.

Modules
-------
* :mod:`repro.kernels.spmv` — SpMV, CSR x dense vector.
* :mod:`repro.kernels.spmspm` — Gustavson SpMSpM (Z = A·Aᵀ in the eval).
* :mod:`repro.kernels.spadd` — two-matrix disjunctive addition (Fig. 3).
* :mod:`repro.kernels.spkadd` — K-matrix disjunctive addition (DCSR).
* :mod:`repro.kernels.mttkrp` — COO matricized tensor times Khatri-Rao.
* :mod:`repro.kernels.sptc` — CSF x CSF tensor contraction (symbolic).
* :mod:`repro.kernels.pagerank` — Jacobi PageRank (GAP-style).
* :mod:`repro.kernels.triangle` — masked-SpMSpM triangle counting.
* :mod:`repro.kernels.cpals` — CP-ALS tensor decomposition.
"""

from .spkadd import spkadd, split_rows_cyclic
from .mttkrp import mttkrp
from .triangle import triangle_count
from .cpals import cp_als

__all__ = [
    "spkadd",
    "split_rows_cyclic",
    "mttkrp",
    "triangle_count",
    "cp_als",
]
