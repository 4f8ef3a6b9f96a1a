"""Peak-memory gate: run each gated session in its own child process
and fail when a child's peak RSS exceeds the session's committed bound.

    PYTHONPATH=src python -m benchmarks.memory_gate

Every session runs with both result caches off, so every cell
simulates and every stream is walked.  The first two peaks are
dominated by what the walk memos and the operand memo keep alive, the
third by what one SpMSpM cell allocates, which is what the bounds
protect:

* ``fig13_medium_slice``: the MTTKRP, CP-ALS and TC slice of ``fig13
  --scale medium``.  Its peak is set by the TC cells of M3 and M4,
  whose walks run with the slice's inputs and memo entries resident;
  the triangle count itself no longer shows (the peak is the same
  with it stubbed out).
* ``fig13_mixed_scale``: one process that runs a small-scale ``fig13``
  and then a medium-scale one, as a long-running ``repro serve`` does
  when sweeps change scale.  The input loaders drop the small inputs
  when the medium ones load; a memo that keeps dead operands, or the
  streams built from them, carries them into the medium session.  Its
  peak is set by the medium SpMV cells of M1 and M4 (the first medium
  input to load, and the one with the most rows); the small SpMSpM
  cells come next, and the medium TC cells that follow add nothing.
* ``fig13_medium_spmspm``: ``fig13 --scale medium`` over SpMSpM alone,
  the workload the other two sessions and the e2e ``fig13-medium``
  workload leave out at ``medium``.  SpMSpM's symbolic pass sorts the
  B-row scans of one block of whole A rows at a time; a pass that
  sorted every scanned key at once (15M and 16M keys on the medium M1
  and M5) took this session to 356 MB against 220 MB.

Until triangle counting intersected block bitsets, its wedge keys on
the medium M1 and M5 set the first two peaks.  The bounds and the measurements
they were set from are in ``benchmarks/baselines/memory.json``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

BASELINE = Path(__file__).resolve().parent / "baselines" / "memory.json"
SRC = Path(__file__).resolve().parents[1] / "src"

#: flags every gated CLI call shares: serial, both caches off
_COLD = ("--jobs", "1", "--no-cache", "--walk-cache", "off")

#: gated session -> the CLI argument lists its one child runs in turn
SESSIONS = {
    "fig13_medium_slice": [
        ("fig13", "--scale", "medium",
         "--workloads", "mttkrp_mp,mttkrp_cp,cpals,tc", *_COLD),
    ],
    "fig13_mixed_scale": [
        ("fig13", "--workloads", "spmv,spmspm,tc", *_COLD),
        ("fig13", "--scale", "medium", "--workloads", "spmv,tc", *_COLD),
    ],
    "fig13_medium_spmspm": [
        ("fig13", "--scale", "medium", "--workloads", "spmspm", *_COLD),
    ],
}

#: the child: run each argument list through ``repro.cli.main`` in one
#: process, then write its peak RSS in KiB (``ru_maxrss`` on Linux)
_CHILD = """
import json, resource, sys
from repro.cli import main
for argv in json.loads(sys.argv[1]):
    if main(argv):
        sys.exit(f"repro {' '.join(argv)} failed")
with open(sys.argv[2], "w") as fh:
    fh.write(str(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss))
"""


def peak_rss_mb(calls: list[tuple[str, ...]]) -> float:
    """Run ``calls`` in one child and return its peak RSS in MB."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with tempfile.TemporaryDirectory() as cwd:
        out = Path(cwd) / "maxrss"
        subprocess.run([sys.executable, "-c", _CHILD,
                        json.dumps([list(c) for c in calls]), str(out)],
                       cwd=cwd, env=env, check=True,
                       stdout=subprocess.DEVNULL)
        return int(out.read_text()) / 1024.0


def main() -> int:
    baseline = json.loads(BASELINE.read_text(encoding="utf-8"))
    failed = 0
    for name, calls in SESSIONS.items():
        bound = baseline[f"{name}_max_rss_mb"]
        peak = peak_rss_mb(calls)
        verdict = "ok" if peak <= bound else "FAIL"
        failed += peak > bound
        print(f"{name} peak RSS {peak:.0f} MB "
              f"(bound {bound:.0f} MB): {verdict}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
