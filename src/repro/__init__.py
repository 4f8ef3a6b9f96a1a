"""Reproduction of "A Tensor Marshaling Unit for Sparse Tensor Algebra
on General-Purpose Processors" (MICRO 2023).

Top-level convenience re-exports; see the subpackages for the full API:

* :mod:`repro.formats`    -- COO/CSR/DCSR/CSF and conversions between them
* :mod:`repro.generators` -- the synthetic input suite (Table 6)
* :mod:`repro.kernels`    -- the software baselines' characterizations,
  plus the functional kernels an example or a timing model runs
* :mod:`repro.tmu`        -- the TMU functional model (the contribution):
  fiber traversal (TUs, §2.3) and merging (TGs, §2.4)
* :mod:`repro.programs`   -- Table 4 kernel-to-TMU mappings
* :mod:`repro.sim`        -- the multicore timing model
* :mod:`repro.eval`       -- experiment drivers for every table/figure
"""

from .config import (
    MachineConfig,
    TMUConfig,
    a64fx_like,
    default_machine,
    experiment_machine,
    graviton3_like,
)
from .errors import (
    FormatError,
    ReproError,
    SimulationError,
    TMUConfigError,
    TMURuntimeError,
    WorkloadError,
)
from .formats import CooMatrix, CooTensor, CsfTensor, CsrMatrix, DcsrMatrix
from .tmu import Event, LayerMode, Program, TmuEngine

__version__ = "1.0.0"

__all__ = [
    "MachineConfig",
    "TMUConfig",
    "default_machine",
    "experiment_machine",
    "a64fx_like",
    "graviton3_like",
    "ReproError",
    "FormatError",
    "TMUConfigError",
    "TMURuntimeError",
    "SimulationError",
    "WorkloadError",
    "CooMatrix",
    "CooTensor",
    "CsrMatrix",
    "DcsrMatrix",
    "CsfTensor",
    "Program",
    "TmuEngine",
    "Event",
    "LayerMode",
    "__version__",
]
