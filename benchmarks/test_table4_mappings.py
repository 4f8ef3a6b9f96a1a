"""Regenerate Table 4: every kernel's TMU mapping runs and is correct.

This benchmark exercises the *functional* engine on every Table 4 row:
the program builds within the engine's lane/layer/storage budget, runs
to completion, and computes exactly the einsum the row implements
(``tests/oracle.py``): operands hold small integers, so every check is
``np.array_equal``.
"""

import numpy as np

from repro.eval.reporting import text_table
from repro.formats.convert import coo_to_csf
from repro.generators import uniform_random_matrix, uniform_random_tensor
from repro.kernels import split_rows_cyclic
from repro.kernels.triangle import lower_triangle
from repro.programs import (
    build_mttkrp_program,
    build_spkadd_program,
    build_spmm_program,
    build_spmspm_program,
    build_spmspv_program,
    build_spmv_program,
    build_sptc_program,
    build_spttm_program,
    build_spttv_program,
    build_triangle_program,
)
from repro.tmu import TmuEngine
from tests.oracle import (
    einsum,
    map_matches,
    pattern,
    pattern_counts,
    small_ints,
    sparse_vector,
    with_small_ints,
)

from .conftest import save_artifact


def _run_all():
    rng = np.random.default_rng(0)
    a = with_small_ints(uniform_random_matrix(40, 40, 4, seed=31), seed=31)
    b = small_ints(rng, 40)
    t = with_small_ints(uniform_random_tensor((12, 10, 8), 150, seed=32),
                        seed=32)
    csf = coo_to_csf(t)
    csf_b = coo_to_csf(uniform_random_tensor((8, 10, 9), 150, seed=33))
    bf = small_ints(rng, (10, 5))
    cf = small_ints(rng, (8, 5))
    bm = small_ints(rng, (40, 6))
    tm = small_ints(rng, (8, 4))
    sv, sv_dense = sparse_vector(rng, 40, 9)
    lt = pattern(lower_triangle(uniform_random_matrix(40, 40, 5, seed=34)))
    parts = split_rows_cyclic(a, 8)
    tv = small_ints(rng, 8)
    spmv = einsum("ij,j->i", a, b)
    spmm = einsum("ik,kj->ij", a, bm)
    spmspm = einsum("ik,jk->ij", a, a)
    mttkrp = einsum("ikl,kj,lj->ij", t, bf, cf)

    cases = [
        ("SpMV P0", build_spmv_program(a, b, lanes=1),
         lambda out: np.array_equal(out, spmv)),
        ("SpMV P1", build_spmv_program(a, b, lanes=8),
         lambda out: np.array_equal(out, spmv)),
        ("SpMSpV", build_spmspv_program(a, sv),
         lambda out: np.array_equal(out, einsum("ij,j->i", a, sv_dense))),
        ("SpMM P0", build_spmm_program(a, bm, lanes=1),
         lambda out: np.array_equal(out, spmm)),
        ("SpMM P1", build_spmm_program(a, bm, lanes=4),
         lambda out: np.array_equal(out, spmm)),
        ("SpMM P2", build_spmm_program(a, bm, lanes=8),
         lambda out: np.array_equal(out, spmm)),
        ("SpMSpM P0", build_spmspm_program(a, a.transpose(), lanes=1),
         lambda out: np.array_equal(out.to_dense(), spmspm)),
        ("SpMSpM P2", build_spmspm_program(a, a.transpose(), lanes=8),
         lambda out: np.array_equal(out.to_dense(), spmspm)),
        ("SpKAdd", build_spkadd_program(parts),
         lambda out: np.array_equal(out.to_dense(),
                                    sum(einsum("ij->ij", p) for p in parts))),
        ("PageRank", build_spmv_program(a, b, lanes=8, name="pr"),
         lambda out: np.array_equal(out, spmv)),
        ("TriangleCount", build_triangle_program(lt),
         lambda out: np.array_equal(out, einsum("ij,ik,jk->", lt, lt, lt))),
        ("MTTKRP P1", build_mttkrp_program(t, bf, cf),
         lambda out: np.array_equal(out, mttkrp)),
        ("MTTKRP P2", build_mttkrp_program(t, bf, cf, name="mttkrp_p2"),
         lambda out: np.array_equal(out, mttkrp)),
        ("SpTC", build_sptc_program(csf, csf_b),
         lambda out: np.array_equal(
             out, pattern_counts("ikl,lkj->ij", csf, csf_b)[csf.idxs[0]])),
        ("SpTTV", build_spttv_program(csf, tv),
         lambda out: map_matches(out, einsum("ijk,k->ij", csf, tv))),
        ("SpTTM", build_spttm_program(csf, tm),
         lambda out: map_matches(out, einsum("ijk,kl->ijl", csf, tm))),
    ]

    rows = []
    for name, built, check in cases:
        engine = TmuEngine(built.program)
        stats = engine.run(built.handlers)
        out = built.result()
        ok = bool(check(out)) if check is not None else True
        rows.append([
            name,
            len(built.program.layers),
            built.program.lanes,
            built.program.layers[-1].mode.value,
            stats.total_iterations,
            stats.outq_records,
            "PASS" if ok else "FAIL",
        ])
        assert ok, f"{name} functional mismatch"
    return rows


def test_table4_mappings(benchmark, results_dir):
    rows = benchmark.pedantic(_run_all, rounds=1, iterations=1)
    save_artifact(
        results_dir, "table4_mappings.txt",
        text_table(
            ["kernel", "layers", "lanes", "last-layer mode",
             "TU iterations", "outQ records", "functional"],
            rows,
            "Table 4: kernel-to-TMU mappings (functional verification)",
        ))
    assert all(r[-1] == "PASS" for r in rows)
    assert len(rows) == 16  # all Table 4 rows exercised
