"""Reproduce the repo's performance trajectory from one store query.

Every optimization PR leaves a ``BENCH_<rev>.json`` snapshot at the
repo root.  This walkthrough ingests that committed trajectory into a
fresh experiment database (:mod:`repro.store`) and asks it the
question the files themselves cannot answer directly: *how has the
headline cells/sec metric moved across revisions?*  The same query
backs the CI ``store-smoke`` gate.  That gate catches only a collapse:
the trajectory points come from different hosts.  Pull requests are
judged by ``python -m benchmarks.e2e compare``, which runs the parent
and the change alternately on one host.

Run:  python examples/query_trajectory.py
"""

import tempfile
from pathlib import Path

from repro.store import (
    HEADLINE_METRIC,
    ExperimentStore,
    cells_per_sec,
    ingest_paths,
    metric_values,
    regressions,
    render_rows,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
bench_files = sorted(REPO_ROOT.glob("BENCH_*.json"))
assert bench_files, f"no BENCH_*.json trajectory at {REPO_ROOT}"

with tempfile.TemporaryDirectory(prefix="tmu-store-") as tmp:
    with ExperimentStore(Path(tmp) / "trajectory.sqlite") as db:
        ingested = ingest_paths(db, bench_files)
        print(f"ingested {len(ingested)} trajectory points "
              f"({sum(1 for r in ingested if r['created'])} new)\n")

        # the one-query answer: headline throughput per revision
        rows, columns = cells_per_sec(db, by="rev")
        print(render_rows(rows, columns, "table"))

        # the same data as the CI gate sees it
        reg_rows, reg_columns, ok = regressions(db, bound=0.2)
        print()
        print(render_rows(reg_rows, reg_columns, "table"))

        values = [v["value"] for v in metric_values(db, HEADLINE_METRIC)]

# the committed trajectory only ever speeds up: 5.97 cells/sec at the
# first benchmarked rev, 14.8 after the vectorized fast path landed
assert values == sorted(values), f"trajectory regressed: {values}"
assert values[0] < 6.5 and values[-1] > 14.0, values
assert ok, "the committed trajectory should never trip the gate"

speedup = values[-1] / values[0]
print(f"\ntrajectory: {values[0]:.2f} -> {values[-1]:.2f} cells/sec "
      f"({speedup:.1f}x across {len(values)} benchmarked revisions)")
