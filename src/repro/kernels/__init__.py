"""Software reference kernels (the paper's TACO/SVE baselines).

Each module implements one kernel of Section 6 with the same loop and
merge structure as the paper's software baseline.  Each kernel a figure
evaluates also has a ``characterize_*`` function that derives the
baseline's committed instruction mix and ordered memory-address streams
for the timing model (:mod:`repro.sim`); the rest (SpMM, SpMSpV, SpTTV,
SpTTM) are functional only.

Kernels
-------
* :mod:`repro.kernels.spmv` — SpMV, CSR x dense vector.
* :mod:`repro.kernels.spmm` — SpMM, CSR x dense matrix.
* :mod:`repro.kernels.spmspv` — SpMSpV, CSR x sparse vector.
* :mod:`repro.kernels.spmspm` — Gustavson SpMSpM (Z = A·Aᵀ in the eval).
* :mod:`repro.kernels.spadd` — two-matrix disjunctive addition.
* :mod:`repro.kernels.spkadd` — K-matrix disjunctive addition (DCSR).
* :mod:`repro.kernels.mttkrp` — COO matricized tensor times Khatri-Rao.
* :mod:`repro.kernels.sptc` — CSF x CSF tensor contraction (symbolic).
* :mod:`repro.kernels.spttv` — CSF tensor times vector.
* :mod:`repro.kernels.spttm` — CSF tensor times matrix.
* :mod:`repro.kernels.pagerank` — Jacobi PageRank (GAP-style).
* :mod:`repro.kernels.triangle` — masked-SpMSpM triangle counting.
* :mod:`repro.kernels.cpals` — CP-ALS tensor decomposition (GenTen-style).
"""

from .spmv import spmv
from .spmm import spmm
from .spmspv import spmspv
from .spmspm import spmspm
from .spadd import spadd
from .spkadd import spkadd, split_rows_cyclic
from .mttkrp import mttkrp
from .sptc import sptc_symbolic, sptc_numeric
from .spttv import spttv
from .spttm import spttm
from .pagerank import pagerank
from .triangle import triangle_count
from .cpals import cp_als

__all__ = [
    "spmv",
    "spmm",
    "spmspv",
    "spmspm",
    "spadd",
    "spkadd",
    "split_rows_cyclic",
    "mttkrp",
    "sptc_symbolic",
    "sptc_numeric",
    "spttv",
    "spttm",
    "pagerank",
    "triangle_count",
    "cp_als",
]
