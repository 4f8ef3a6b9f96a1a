"""Ablation studies on the TMU design choices DESIGN.md calls out.

Not figures from the paper — these probe the *model's* sensitivity to
its own design parameters, the analyses a reviewer would ask for:

* merge-on-engine vs merge-on-core (what the DisjMrg hardware buys);
* outQ chunk size (the double-buffering/pipeline-fill trade-off);
* outstanding-request budget (the decoupling depth, Section 5.6);
* engine placement sanity: reading from a scaled-down LLC vs a cold
  one (locality captured by the shared cache, Section 5.6).
"""

from repro.config import experiment_machine
from repro.eval.reporting import text_table
from repro.eval.workloads import SPKADD_K
from repro.generators import load_matrix
from repro.kernels import split_rows_cyclic
from repro.programs import spkadd_timing_model, spmv_timing_model
from repro.sim.machine import run_tmu

from .conftest import save_artifact


def _ablate():
    machine = experiment_machine("small")
    matrix = load_matrix("M2", "small")
    spmv_model = spmv_timing_model(matrix, machine)
    spkadd_model = spkadd_timing_model(
        split_rows_cyclic(matrix, SPKADD_K), machine)
    rows = []

    # 1. merge hardware: SpKAdd with and without on-engine merging.
    with_merge = run_tmu(spkadd_model, machine)
    rows.append(["spkadd", "merge on engine",
                 int(with_merge.tmu_cycles)])
    without = run_tmu(spkadd_model, machine, merge_on_engine=False)
    rows.append(["spkadd", "merge off engine (traversal only)",
                 int(without.tmu_cycles)])

    # 2. outQ chunk size: fill latency shrinks with smaller chunks.
    chunk_cycles = {}
    for chunk in (1024, 4096, 16384, 65536):
        m = machine.with_tmu(outq_chunk_bytes=chunk)
        result = run_tmu(spmv_model, m)
        chunk_cycles[chunk] = result.cycles
        rows.append(["spmv", f"outQ chunk {chunk}B",
                     int(result.cycles)])

    # 3. outstanding requests: decoupling depth.
    outstanding_cycles = {}
    for outstanding in (16, 32, 64, 128, 256):
        m = machine.with_tmu(outstanding_requests=outstanding)
        result = run_tmu(spmv_model, m)
        outstanding_cycles[outstanding] = result.cycles
        rows.append(["spmv", f"{outstanding} outstanding requests",
                     int(result.cycles)])

    return rows, with_merge, without, chunk_cycles, outstanding_cycles


def test_design_ablations(benchmark, results_dir):
    rows, with_merge, without, chunks, outstanding = benchmark.pedantic(
        _ablate, rounds=1, iterations=1)
    save_artifact(results_dir, "ablations.txt", text_table(
        ["workload", "configuration", "TMU-system cycles"], rows,
        "Design-choice ablations"))

    # The merge network is pure win for SpKAdd's producer side: without
    # it the engine only traverses, but the core would then have to
    # merge — the engine-side time can only drop, never rise.
    assert without.tmu_cycles <= with_merge.tmu_cycles

    # Larger chunks cost pipeline fill: monotonically non-decreasing.
    sizes = sorted(chunks)
    assert all(chunks[a] <= chunks[b] + 1e-9
               for a, b in zip(sizes, sizes[1:]))

    # More outstanding requests never hurt; the curve saturates once
    # the bandwidth floor binds.
    outs = sorted(outstanding)
    assert all(outstanding[a] >= outstanding[b] - 1e-9
               for a, b in zip(outs, outs[1:]))
    assert outstanding[128] == outstanding[256]  # saturated


def _core_scaling_study():
    """Core-count scaling of the TMU-accelerated SpMV (the knee sits on
    the shared bandwidth wall the Figure 12 rooflines show)."""
    from repro.sim.parallel import core_scaling

    machine = experiment_machine("small")
    matrix = load_matrix("M2", "small")
    model = spmv_timing_model(matrix, machine)
    tmu = run_tmu(model, machine)
    per_core_bytes = tmu.breakdown.mem_bytes
    curve = core_scaling(machine, per_core_cycles=tmu.cycles,
                         per_core_mem_bytes=per_core_bytes,
                         core_counts=(1, 2, 4, 8, 16, 32))
    return curve


def test_core_scaling(benchmark, results_dir):
    curve = benchmark.pedantic(_core_scaling_study, rounds=1,
                               iterations=1)
    rows = [[c, f"{s:.2f}x"] for c, s in sorted(curve.items())]
    save_artifact(results_dir, "ablation_core_scaling.txt", text_table(
        ["cores", "speedup over 1 core"], rows,
        "TMU SpMV core-count scaling (shared-bandwidth wall)"))
    # monotone non-decreasing, saturating at the bandwidth wall
    cores = sorted(curve)
    assert all(curve[a] <= curve[b] + 1e-9
               for a, b in zip(cores, cores[1:]))
    assert curve[32] == curve[16] or curve[32] / curve[16] < 1.3
