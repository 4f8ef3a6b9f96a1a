"""Peak-memory gate: run one medium-scale Fig. 13 session in a child
process and fail when its peak RSS exceeds the committed bound.

    PYTHONPATH=src python -m benchmarks.memory_gate

The session is the MTTKRP, CP-ALS and TC slice of ``fig13 --scale
medium`` with both result caches off, so every cell simulates and every
stream is walked.  Its peak is dominated by what the walk memos and the
operand memo keep alive, which is what the bound protects.  The bound
and the measurement it was set from are in
``benchmarks/baselines/memory.json``.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

BASELINE = Path(__file__).resolve().parent / "baselines" / "memory.json"
SRC = Path(__file__).resolve().parents[1] / "src"

#: the gated session's CLI arguments
COMMAND = (
    "fig13", "--scale", "medium",
    "--workloads", "mttkrp_mp,mttkrp_cp,cpals,tc",
    "--jobs", "1", "--no-cache", "--walk-cache", "off",
)


def peak_rss_mb() -> float:
    """Run the gated session in a child and return its peak RSS in MB
    (``ru_maxrss`` is in KiB on Linux)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with tempfile.TemporaryDirectory() as cwd:
        subprocess.run([sys.executable, "-m", "repro", *COMMAND],
                       cwd=cwd, env=env, check=True,
                       stdout=subprocess.DEVNULL)
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def main() -> int:
    bound = json.loads(BASELINE.read_text(encoding="utf-8"))[
        "fig13_medium_slice_max_rss_mb"]
    peak = peak_rss_mb()
    verdict = "ok" if peak <= bound else "FAIL"
    print(f"fig13 medium slice peak RSS {peak:.0f} MB "
          f"(bound {bound:.0f} MB): {verdict}")
    return 0 if peak <= bound else 1


if __name__ == "__main__":
    sys.exit(main())
