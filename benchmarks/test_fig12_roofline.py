"""Regenerate Figure 12: roofline models."""

from repro.config import experiment_machine
from repro.eval import experiments as ex
from repro.generators import fixed_nnz_per_row_matrix
from repro.kernels.spmspm import characterize_spmspm
from repro.sim.machine import run_baseline

from .conftest import save_artifact


def test_fig12_roofline(benchmark, results_dir, scale):
    data = benchmark.pedantic(
        ex.fig12_roofline, args=(scale,), rounds=1, iterations=1)
    save_artifact(results_dir, "fig12_roofline.txt",
                  ex.render_fig12(data))

    peak_bw = data["peak_bandwidth_gbps"]
    peak_gf = data["peak_gflops"]
    assert peak_bw == 150.0  # 4 x 37.5 GB/s (Table 5)

    def point(panel, label_part, system):
        for p in data["panels"][panel]:
            if label_part in p.label and p.label.endswith(system):
                return p
        raise AssertionError(f"missing point {label_part}/{system}")

    # Panel (a): every point stays under the roofline.
    for p in data["panels"]["a"]:
        ceiling = min(peak_gf, peak_bw * p.arithmetic_intensity)
        assert p.gflops <= ceiling * 1.15, p

    # Paper shape: baseline SVE versions use a small fraction of the
    # bandwidth; TMU versions get close to the bandwidth roof.
    spmv_base = point("a", "spmv", "baseline")
    spmv_tmu = point("a", "spmv", "tmu")
    assert spmv_base.bandwidth_gbps < 0.45 * peak_bw
    assert spmv_tmu.bandwidth_gbps > 0.6 * peak_bw
    assert spmv_tmu.bandwidth_gbps > 2.0 * spmv_base.bandwidth_gbps

    # SpMSpM cannot use as much bandwidth as SpMV: compute-bound.
    spmspm_tmu = point("a", "spmspm", "tmu")
    assert spmspm_tmu.bandwidth_gbps < spmv_tmu.bandwidth_gbps

    # The dashed nnz/row ceilings of panel (c) increase with density.
    ceilings = data["nnz_per_row_ceilings"]
    assert ceilings[1] < ceilings[8] < ceilings[64]


def ceiling_matrices(scale: str) -> dict[int, float]:
    """Measured SpMSpM throughput on the synthetic fixed-nnz/row
    matrices that define Figure 12c's dashed ceilings."""
    machine = experiment_machine(scale)
    out = {}
    for n in (1, 8, 64):
        matrix = fixed_nnz_per_row_matrix(4096, n, seed=12)
        trace = characterize_spmspm(matrix, matrix, machine)
        result = run_baseline(trace, machine)
        out[n] = result.breakdown.gflops(machine.core.freq_ghz) * (
            machine.num_cores)
    return out


def test_fig12c_ceiling_matrices(benchmark, results_dir, scale):
    """The synthetic fixed-nnz/row matrices behind panel (c)."""
    measured = benchmark.pedantic(
        ceiling_matrices, args=(scale,), rounds=1, iterations=1)
    lines = [f"n={n}: {v:.2f} GFLOP/s (measured SpMSpM baseline)"
             for n, v in measured.items()]
    save_artifact(results_dir, "fig12c_ceilings.txt", "\n".join(lines))
    # throughput grows with nnz/row: more flops per traversal byte
    assert measured[1] < measured[8] < measured[64]
