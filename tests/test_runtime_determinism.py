"""Determinism of SimTask evaluation — the caching precondition.

Content-addressed caching is only sound if re-evaluating the same task
spec reproduces the same record bit-for-bit.  These tests clear every
in-process memo layer between two evaluations of a sample of
workloads (one per input kind and intensity category) and compare the
canonical JSON encodings byte for byte.
"""

from __future__ import annotations

import json

import pytest

from repro.generators import suite
from repro.runtime import SimTask


def _canonical_bytes(record: dict) -> bytes:
    return json.dumps(record, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def _clear_memos() -> None:
    """Force full recomputation: drop the generated input memos, so
    the second evaluation rebuilds inputs and re-runs the simulation
    from scratch."""
    suite.load_matrix.cache_clear()
    suite.load_tensor.cache_clear()


SAMPLE = [
    ("spmv", "M1"),        # memory-intensive, matrix
    ("spmspm", "M2"),      # compute-intensive, matrix
    ("spkadd", "M3"),      # merge-intensive, matrix
    ("mttkrp_mp", "T1"),   # memory-intensive, tensor
]


@pytest.mark.parametrize("workload,input_id", SAMPLE)
def test_same_seed_is_byte_identical(workload, input_id):
    """The same spec, evaluated twice from cold memos, gives the same
    record bytes (the suite is deterministic: no cell carries a seed)."""
    task = SimTask(workload, input_id, scale="small")
    first = task.evaluate()
    _clear_memos()
    second = task.evaluate()
    assert _canonical_bytes(first) == _canonical_bytes(second)


def test_record_survives_disk_roundtrip_byte_identically(tmp_path):
    """What the cache writes is exactly what a rerun would produce."""
    task = SimTask("spmv", "M2", scale="small")
    record = task.evaluate()
    path = tmp_path / "record.json"
    path.write_text(json.dumps(record, sort_keys=True), encoding="utf-8")
    loaded = json.loads(path.read_text(encoding="utf-8"))
    assert _canonical_bytes(loaded) == _canonical_bytes(record)


def test_hash_stable_across_memo_state():
    """The content hash never depends on warm in-process caches."""
    task = SimTask("spkadd", "M1")
    before = task.content_hash()
    task.evaluate()
    assert SimTask("spkadd", "M1").content_hash() == before
    _clear_memos()
    assert SimTask("spkadd", "M1").content_hash() == before
