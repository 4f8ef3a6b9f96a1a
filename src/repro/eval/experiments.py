"""Experiment drivers: one function per paper table/figure.

Every driver returns a plain data structure (dict / list of rows) plus
a ``render_*`` companion that formats it as text, so the benchmark
harness, the CLI and the tests all share one implementation.

Drivers do not simulate directly: each declares its (workload × input
× machine-variant) sweep as :class:`~repro.runtime.SimTask` cells and
submits the whole batch through the active :mod:`repro.runtime`
executor, which layers content-addressed result caching and process-
pool parallelism (``--jobs``) under every figure uniformly.
"""

from __future__ import annotations

import numpy as np

from ..config import (
    a64fx_like,
    experiment_machine,
    graviton3_like,
    scale_caches,
    CACHE_SCALE_DIVISOR,
)
from ..generators.suite import MATRIX_SUITE, TENSOR_SUITE, load_matrix, \
    load_tensor, matrix_ids
from ..runtime import SimTask, active_runtime
from ..sim.stats import (
    RooflinePoint,
    nnz_per_row_ceiling,
    peak_bandwidth_gbps,
    peak_gflops,
    roofline_point,
)
from ..tmu.area import paper_configuration
from ..types import geomean
from .reporting import heatmap_table, text_table
from .workloads import (
    WORKLOADS,
    WorkloadRun,
    inputs_for,
)

#: the paper's workload order in Figure 10/11 (linear then tensor)
FIG10_WORKLOADS = ("spmv", "spmspm", "spkadd", "pr", "tc",
                   "mttkrp_mp", "mttkrp_cp", "cpals", "sptc")

#: paper-reported geomean speedups, for EXPERIMENTS.md comparison
PAPER_GEOMEANS = {
    "spmv": 3.32, "spmspm": 2.82, "spkadd": 6.98, "pr": 2.74,
    "tc": 4.56, "mttkrp_mp": 3.76, "mttkrp_cp": 4.01, "cpals": 2.88,
    "sptc": 3.79,
}

PAPER_CATEGORY_GEOMEANS = {"memory": 3.58, "compute": 2.82,
                           "merge": 4.94}


def _submit(tasks: list[SimTask]) -> dict[SimTask, WorkloadRun]:
    """Run a batch of cells through the active experiment runtime."""
    return active_runtime().run_cells(tasks)


def _sweep(scale: str, workloads: tuple[str, ...],
           ) -> dict[tuple[str, str], WorkloadRun]:
    """The standard (workload × suite-input) sweep, keyed by cell."""
    tasks = {
        (workload, input_id): SimTask(workload, input_id, scale=scale)
        for workload in workloads
        for input_id in inputs_for(workload)
    }
    runs = _submit(list(tasks.values()))
    return {cell: runs[task] for cell, task in tasks.items()}


# ---------------------------------------------------------------- Fig. 3

def fig03_motivation(scale: str = "small") -> list[dict]:
    """Frontend/backend stall fractions of SpMV, SpMSpM and SpAdd on
    A64FX-like and Graviton3-like hosts (the motivation study)."""
    divisor = CACHE_SCALE_DIVISOR[scale]
    hosts = {
        "a64fx": scale_caches(a64fx_like(), divisor),
        "graviton3": scale_caches(graviton3_like(), divisor),
    }
    tasks = {
        (host_name, workload, input_id): SimTask(
            workload, input_id, scale=scale, variants=("baseline",),
            machine=machine)
        for host_name, machine in hosts.items()
        for workload in ("spmv", "spmspm", "spadd")
        for input_id in matrix_ids()
    }
    runs = _submit(list(tasks.values()))
    rows = []
    for (host_name, workload, input_id), task in tasks.items():
        commit, fe, be = runs[task].baseline.breakdown.normalized()
        rows.append({
            "host": host_name,
            "workload": workload,
            "input": input_id,
            "committing": commit,
            "frontend": fe,
            "backend": be,
        })
    return rows


def render_fig03(rows: list[dict]) -> str:
    table = [[r["host"], r["workload"], r["input"], r["committing"],
              r["frontend"], r["backend"]] for r in rows]
    return text_table(
        ["host", "workload", "input", "commit", "frontend", "backend"],
        table,
        "Figure 3: normalized cycles spent committing / frontend / "
        "backend stalls",
    )


# --------------------------------------------------------------- Fig. 10

def fig10_speedups(scale: str = "small",
                   workloads: tuple[str, ...] = FIG10_WORKLOADS) -> dict:
    """TMU speedup over the software baseline for every workload and
    input, with per-workload and per-category geomeans."""
    runs = _sweep(scale, workloads)
    per_workload: dict[str, dict[str, float]] = {}
    for workload in workloads:
        per_workload[workload] = {
            input_id: runs[(workload, input_id)].speedup
            for input_id in inputs_for(workload)
        }
    geomeans = {w: geomean(vals.values())
                for w, vals in per_workload.items()}
    categories = {}
    for category in ("memory", "compute", "merge"):
        vals = [s for w in workloads
                if WORKLOADS[w].category == category
                for s in per_workload[w].values()]
        if vals:
            categories[category] = geomean(vals)
    return {"per_workload": per_workload, "geomeans": geomeans,
            "categories": categories}


def render_fig10(data: dict) -> str:
    rows = []
    for workload, vals in data["per_workload"].items():
        for input_id, speedup in vals.items():
            rows.append([workload, input_id, speedup])
        rows.append([workload, "geomean", data["geomeans"][workload]])
    for category, value in data["categories"].items():
        rows.append([f"[{category}-intensive]", "geomean", value])
    return text_table(["workload", "input", "speedup"], rows,
                      "Figure 10: TMU speedup over software baselines")


# --------------------------------------------------------------- Fig. 11

def fig11_breakdown(scale: str = "small",
                    workloads: tuple[str, ...] = FIG10_WORKLOADS,
                    ) -> list[dict]:
    """Cycle breakdowns and load-to-use latency, baseline vs TMU."""
    runs = _sweep(scale, workloads)
    rows = []
    for workload in workloads:
        for input_id in inputs_for(workload):
            run = runs[(workload, input_id)]
            for system, result in (("baseline", run.baseline),
                                   ("tmu", run.tmu)):
                commit, fe, be = result.breakdown.normalized()
                rows.append({
                    "workload": workload,
                    "input": input_id,
                    "system": system,
                    "committing": commit,
                    "frontend": fe,
                    "backend": be,
                    "load_to_use": result.breakdown.load_to_use,
                })
    return rows


def render_fig11(rows: list[dict]) -> str:
    table = [[r["workload"], r["input"], r["system"], r["committing"],
              r["frontend"], r["backend"], r["load_to_use"]]
             for r in rows]
    return text_table(
        ["workload", "input", "system", "commit", "frontend", "backend",
         "load-to-use"],
        table,
        "Figure 11: normalized cycle breakdown and load-to-use latency",
    )


# --------------------------------------------------------------- Fig. 12

def fig12_roofline(scale: str = "small") -> dict:
    """Roofline data: (a) workload geomeans, (b) SpMV, (c) SpMSpM with
    nnz/row ceilings, (d) SpKAdd."""
    machine = experiment_machine(scale)
    runs = _sweep(scale, FIG10_WORKLOADS)
    out: dict = {
        "peak_gflops": peak_gflops(machine),
        "peak_bandwidth_gbps": peak_bandwidth_gbps(machine),
        "panels": {},
    }

    # Panel (a): per-workload geomean points (skip TC integer & SpTC
    # symbolic, as the paper does).
    panel_a: list[RooflinePoint] = []
    for workload in FIG10_WORKLOADS:
        if workload in ("tc", "sptc"):
            continue
        for system in ("baseline", "tmu"):
            ais, gfs, bws = [], [], []
            for input_id in inputs_for(workload):
                run = runs[(workload, input_id)]
                result = run.baseline if system == "baseline" else run.tmu
                point = roofline_point(f"{workload}/{system}",
                                       result.breakdown, machine)
                if point.arithmetic_intensity > 0 and point.gflops > 0:
                    ais.append(point.arithmetic_intensity)
                    gfs.append(point.gflops)
                    bws.append(max(point.bandwidth_gbps, 1e-9))
            if ais:
                panel_a.append(RooflinePoint(
                    f"{workload}/{system}", geomean(ais), geomean(gfs),
                    geomean(bws)))
    out["panels"]["a"] = panel_a

    # Panels (b)-(d): per-input points.
    for panel, workload in (("b", "spmv"), ("c", "spmspm"),
                            ("d", "spkadd")):
        points = []
        for input_id in inputs_for(workload):
            run = runs[(workload, input_id)]
            for system, result in (("baseline", run.baseline),
                                   ("tmu", run.tmu)):
                points.append(roofline_point(
                    f"{workload}/{input_id}/{system}", result.breakdown,
                    machine))
        out["panels"][panel] = points

    # The dashed ceilings of panel (c).
    out["nnz_per_row_ceilings"] = {
        n: nnz_per_row_ceiling(machine, n) for n in (1, 8, 64)
    }
    return out


def render_fig12(data: dict) -> str:
    rows = []
    for panel, points in data["panels"].items():
        for p in points:
            rows.append([panel, p.label, p.arithmetic_intensity,
                         p.gflops, p.bandwidth_gbps])
    ceilings = ", ".join(f"n={n}: {v:.1f} GF/s"
                         for n, v in data["nnz_per_row_ceilings"].items())
    title = (
        "Figure 12: rooflines "
        f"(peak {data['peak_gflops']:.0f} GF/s, "
        f"{data['peak_bandwidth_gbps']:.0f} GB/s; "
        f"SpMSpM ceilings {ceilings})"
    )
    return text_table(["panel", "point", "AI", "GFLOP/s", "GB/s"], rows,
                      title)


# --------------------------------------------------------------- Fig. 13

def fig13_read_to_write(scale: str = "small",
                        workloads: tuple[str, ...] = FIG10_WORKLOADS,
                        ) -> dict[str, float]:
    """Geomean read-to-write ratio per workload."""
    runs = _sweep(scale, workloads)
    out = {}
    for workload in workloads:
        ratios = []
        for input_id in inputs_for(workload):
            run = runs[(workload, input_id)]
            if run.tmu and run.tmu.read_to_write:
                ratios.append(run.tmu.read_to_write)
        out[workload] = geomean(ratios) if ratios else float("nan")
    return out


def render_fig13(data: dict[str, float]) -> str:
    rows = [[w, v] for w, v in data.items()]
    return text_table(["workload", "read-to-write"], rows,
                      "Figure 13: core-read vs TMU-write chunk time")


# --------------------------------------------------------------- Fig. 14

#: engine storage sweep (total KB) and SVE width sweep of Figure 14
FIG14_STORAGE_KB = (4, 8, 16, 32)
FIG14_SVE_BITS = (128, 256, 512)


def fig14_sensitivity(scale: str = "small",
                      workloads: tuple[str, ...] = ("spmv", "spmspm"),
                      ) -> dict[str, np.ndarray]:
    """Normalized TMU-system performance sweeping engine storage x SVE
    width.

    SVE width ties the lane count (512 bits ↔ 8 lanes); each cell is
    the TMU system's absolute performance (inverse cycles) normalized
    to the evaluated (16 KB, 512 bit) configuration, as in the paper's
    heatmap.
    """
    base = experiment_machine(scale)
    # Declare the whole (storage × width × workload × input) sweep up
    # front so the runtime can fan every cell out at once.
    tasks: dict[tuple, SimTask] = {}
    for workload in workloads:
        for kb in FIG14_STORAGE_KB:
            for bits in FIG14_SVE_BITS:
                lanes = max(1, bits // 64)
                machine = base.with_core(vector_bits=bits).with_tmu(
                    lanes=lanes,
                    per_lane_storage_bytes=kb * 1024 // lanes,
                )
                for input_id in inputs_for(workload):
                    tasks[(workload, kb, bits, input_id)] = SimTask(
                        workload, input_id, scale=scale, machine=machine)
    runs = _submit(list(tasks.values()))

    out: dict[str, np.ndarray] = {}
    for workload in workloads:
        grid = np.zeros((len(FIG14_STORAGE_KB), len(FIG14_SVE_BITS)))
        for i, kb in enumerate(FIG14_STORAGE_KB):
            for j, bits in enumerate(FIG14_SVE_BITS):
                inv_cycles = [
                    1.0 / runs[tasks[(workload, kb, bits, input_id)]]
                    .tmu.cycles
                    for input_id in inputs_for(workload)
                ]
                grid[i, j] = geomean(inv_cycles)
        ref = grid[FIG14_STORAGE_KB.index(16),
                   FIG14_SVE_BITS.index(512)]
        out[workload] = grid / ref
    return out


def render_fig14(data: dict[str, np.ndarray]) -> str:
    blocks = []
    for workload, grid in data.items():
        blocks.append(heatmap_table(
            [f"{kb}KB" for kb in FIG14_STORAGE_KB],
            [f"{b}b" for b in FIG14_SVE_BITS],
            grid,
            f"Figure 14 ({workload}): speedup normalized to 16KB/512b",
        ))
    return "\n\n".join(blocks)


# --------------------------------------------------------------- Fig. 15

def fig15_state_of_the_art(scale: str = "small") -> dict:
    """IMP vs Single-Lane vs TMU on SpMV and SpMSpM."""
    tasks = {
        (workload, input_id): SimTask(
            workload, input_id, scale=scale,
            variants=("baseline", "tmu", "single_lane", "imp"))
        for workload in ("spmv", "spmspm")
        for input_id in inputs_for(workload)
    }
    runs = _submit(list(tasks.values()))
    out: dict = {}
    for workload in ("spmv", "spmspm"):
        rows = {}
        for input_id in inputs_for(workload):
            run = runs[tasks[(workload, input_id)]]
            rows[input_id] = {
                "imp": run.baseline.cycles / run.imp.cycles,
                "single_lane": run.baseline.cycles / (
                    run.single_lane.cycles),
                "tmu": run.speedup,
            }
        out[workload] = rows
    return out


def render_fig15(data: dict) -> str:
    rows = []
    for workload, inputs in data.items():
        for input_id, systems in inputs.items():
            rows.append([workload, input_id, systems["imp"],
                         systems["single_lane"], systems["tmu"]])
        rows.append([
            workload, "geomean",
            geomean(s["imp"] for s in inputs.values()),
            geomean(s["single_lane"] for s in inputs.values()),
            geomean(s["tmu"] for s in inputs.values()),
        ])
    return text_table(["workload", "input", "IMP", "Single-Lane", "TMU"],
                      rows, "Figure 15: state-of-the-art comparison")


# --------------------------------------------------------------- Tables

def table5_parameters(scale: str = "small") -> list[tuple[str, str]]:
    """The simulated architecture (Table 5), including the cache scaling
    applied at the given input scale."""
    m = experiment_machine(scale)
    full = experiment_machine("paper")
    return [
        ("Cores", f"{m.num_cores} {m.core.name} at {m.core.freq_ghz}GHz"),
        ("SVE width", f"{m.core.vector_bits} bits"),
        ("Reorder buffer", f"{m.core.rob_entries} entries"),
        ("Load/Store queues",
         f"{m.core.load_queue} entries, {m.core.store_queue} entries"),
        ("Private L1D",
         f"{full.l1d.size_bytes // 1024} KiB/core (scaled: "
         f"{m.l1d.size_bytes} B), {m.l1d.ways}-way, {m.l1d.latency} "
         f"cycles, {m.l1d.mshrs} MSHRs"),
        ("Private L2",
         f"{full.l2.size_bytes // 1024} KiB/core (scaled: "
         f"{m.l2.size_bytes} B), {m.l2.ways}-way, {m.l2.latency} "
         f"cycles, {m.l2.mshrs} MSHRs"),
        ("Shared LLC",
         f"{full.llc.size_bytes // (1024 * 1024)} MiB (scaled: "
         f"{m.llc.size_bytes // 1024} KiB), {m.llc.ways}-way, "
         f"{m.llc.latency} cycles, {m.llc.mshrs} MSHRs"),
        ("Network", f"{m.noc.mesh_x}x{m.noc.mesh_y} 2D mesh, "
         f"{m.noc.router_cycles} cycle routers, {m.noc.link_cycles} "
         "cycle links"),
        ("Memory", f"{m.memory.channels} HBM2e channels, "
         f"{m.memory.channel_gbps}GB/s per channel"),
        ("TMU", f"{m.tmu.per_lane_storage_bytes // 1024}KB per-lane "
         f"storage, {m.tmu.lanes} lanes, {m.tmu.layers} TGs with "
         f"mergers, {m.tmu.outstanding_requests} outstanding requests"),
    ]


def render_table5(rows: list[tuple[str, str]]) -> str:
    return text_table(["parameter", "value"], rows,
                      "Table 5: simulated architectural parameters")


def table6_inputs(scale: str = "small") -> list[dict]:
    """The input suite: paper statistics vs the generated stand-ins."""
    rows = []
    for input_id, spec in MATRIX_SUITE.items():
        matrix = load_matrix(input_id, scale)
        rows.append({
            "id": input_id,
            "source": spec.source_name,
            "domain": spec.domain,
            "paper_nnz": spec.paper_nnz,
            "paper_rows": spec.paper_rows_or_dims,
            "generated_nnz": matrix.nnz,
            "generated_rows": matrix.num_rows,
            "nnz_per_row": matrix.nnz / max(1, matrix.num_rows),
        })
    for input_id, spec in TENSOR_SUITE.items():
        tensor = load_tensor(input_id, scale)
        rows.append({
            "id": input_id,
            "source": spec.source_name,
            "domain": spec.domain,
            "paper_nnz": spec.paper_nnz,
            "paper_rows": spec.paper_rows_or_dims,
            "generated_nnz": tensor.nnz,
            "generated_rows": " x ".join(str(s) for s in tensor.shape),
            "nnz_per_row": float("nan"),
        })
    return rows


def render_table6(rows: list[dict]) -> str:
    table = [[r["id"], r["source"], r["domain"], r["paper_nnz"],
              r["generated_nnz"], r["generated_rows"]] for r in rows]
    return text_table(
        ["id", "source", "domain", "paper nnz", "generated nnz",
         "generated rows/dims"],
        table, "Table 6: inputs (paper vs generated stand-ins)")


def area_results() -> dict:
    """The RTL area results of Section 6, via the analytic model."""
    model = paper_configuration()
    return {
        "total_mm2": model.total_mm2(),
        "lane_mm2": model.lane_mm2(),
        "core_fraction": model.core_fraction(),
        "paper_total_mm2": 0.0704,
        "paper_lane_mm2": 0.0080,
        "paper_core_fraction": 0.0152,
    }


def render_area(data: dict) -> str:
    rows = [
        ["TMU total", f"{data['total_mm2']:.4f} mm2",
         f"{data['paper_total_mm2']:.4f} mm2"],
        ["per lane", f"{data['lane_mm2']:.4f} mm2",
         f"{data['paper_lane_mm2']:.4f} mm2"],
        ["fraction of N1 core", f"{data['core_fraction'] * 100:.2f}%",
         f"{data['paper_core_fraction'] * 100:.2f}%"],
    ]
    return text_table(["quantity", "model", "paper"], rows,
                      "Area (GF 22FDX, Section 6)")
