"""The Tensor Marshaling Unit: a faithful functional model.

The TMU is a matrix of Traversal Units (TUs): rows are *lanes* (used
for parallel loading and merging), columns are *layers* (one per loop
of the tensor expression's loop nest), each layer co-ordinated by a
Traversal Group (TG) and feeding the next through inter-layer
configurations (Table 3).  Aggregated operands are marshaled into the
host core through a memory-mapped output queue (outQ) that triggers
registered callbacks.

Package layout (paper section in parentheses):

* :mod:`repro.tmu.streams`   — data streams: ite/mem/lin, plus the TG's msk (Table 2)
* :mod:`repro.tmu.tu`        — TU FSM + traversal primitives (Table 1, §5.1)
* :mod:`repro.tmu.tg`        — TG FSM + merge/co-iteration modes (Table 3, §5.2)
* :mod:`repro.tmu.outq`      — outQ chunk construction (§5.3)
* :mod:`repro.tmu.arbiter`   — cacheline request arbitration (§5.4)
* :mod:`repro.tmu.sizing`    — per-lane storage allocation model (§5.5)
* :mod:`repro.tmu.program`   — the programming API of Figure 8 (§4.4)
* :mod:`repro.tmu.engine`    — execution engine + statistics
* :mod:`repro.tmu.context`   — context save/restore (§5.6)
* :mod:`repro.tmu.area`      — area model from the RTL prototype (§6)
"""

from .program import (
    Event,
    LayerMode,
    Program,
)
from .engine import TmuEngine, RunStats
from .outq import OutQueue, OutQueueRecord
from .area import TmuAreaModel
from .context import TmuContext, save_context, restore_context
from .sizing import QueueSizing, size_queues

__all__ = [
    "Event",
    "LayerMode",
    "Program",
    "TmuEngine",
    "RunStats",
    "OutQueue",
    "OutQueueRecord",
    "TmuAreaModel",
    "TmuContext",
    "save_context",
    "restore_context",
    "QueueSizing",
    "size_queues",
]
