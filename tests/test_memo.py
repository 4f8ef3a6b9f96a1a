"""The identity memo class behind the operand memo and both walk memos:
weakly held objects, identity hits, a bound over live entries, a purge
that runs to a fixed point, and no deadlock when a collection runs
inside a call."""

import gc
import threading
from collections import OrderedDict

import numpy as np
import pytest

from repro import memo
from repro.memo import IdentityLRU


class Box:
    """A plain weak-referenceable object."""

    def __init__(self, payload=None) -> None:
        self.payload = payload


def test_hit_needs_the_same_objects():
    lru = IdentityLRU(8)
    a, twin = np.arange(4), np.arange(4)
    lru.put(("k",), [a], "va")
    assert lru.get(("k",), [a]) == "va"
    assert lru.get(("k",), [twin]) is None  # equal content, other array
    assert lru.get(("other",), [a]) is None


def test_put_marks_object_and_value_arrays_read_only():
    lru = IdentityLRU(8)
    key_array = np.arange(4)
    holder = Box(np.arange(3))
    value = (np.zeros(2), [Box(np.ones(2))])
    lru.put(("k",), [key_array, holder], value)
    for array in (key_array, holder.payload, value[0], value[1][0].payload):
        with pytest.raises(ValueError):
            array[0] = 7


def test_put_walks_a_key_object_once(monkeypatch):
    """An object that keys many entries is marked read-only when it
    first keys one; later puts do not walk it again."""
    walked = []
    real = memo._read_only

    def recorded(value):
        walked.append(value)
        real(value)

    monkeypatch.setattr(memo, "_read_only", recorded)
    lru = IdentityLRU(8)
    shared, other = Box(np.arange(3)), Box(np.arange(2))
    lru.put(("a",), [shared], "va")
    lru.put(("b",), [shared, other], "vb")
    assert [id(v) for v in walked if isinstance(v, Box)] == [
        id(shared), id(other)]
    for array in (shared.payload, other.payload):
        with pytest.raises(ValueError):
            array[0] = 7


def test_objects_must_support_weak_references():
    lru = IdentityLRU(8)
    with pytest.raises(TypeError):
        lru.put(("k",), [(1, 2)], "v")
    assert len(lru) == 0


def test_reused_id_never_serves_a_dead_objects_value():
    """Even an entry whose death went unrecorded cannot answer for a
    new object that took over its object's ``id``."""
    lru = IdentityLRU(8)
    old = Box()
    lru.put(("k",), [old], "old value")
    dead_id = id(old)
    del old
    lru._dead.clear()  # as if the callback never ran: the entry stays
    assert len(lru) == 1
    held = []
    for _ in range(10_000):
        held.append(Box())
        if id(held[-1]) == dead_id:
            break
    else:
        pytest.fail("the allocator never reused the dead object's id")
    new = held[-1]
    assert lru.get(("k",), [new]) is None
    lru.put(("k",), [new], "new value")
    assert lru.get(("k",), [new]) == "new value"
    assert len(lru) == 1


def test_bound_counts_live_entries():
    lru = IdentityLRU(4)
    held = [Box() for _ in range(10)]
    evicted = sum(lru.put(("k",), [obj], i) for i, obj in enumerate(held))
    assert evicted == 6
    assert len(lru) == 4
    # the four newest survive; two of them die, and dead entries leave
    # without counting as evictions or toward the bound
    assert [lru.get(("k",), [obj]) for obj in held[6:]] == [6, 7, 8, 9]
    del held[6:8]
    gc.collect()
    assert len(lru) == 2
    fresh = [Box(), Box()]
    assert sum(lru.put(("k",), [obj], "x") for obj in fresh) == 0
    assert len(lru) == 4


def test_dead_value_releases_a_dependent_entry_in_one_purge():
    """A value that holds another entry's only object (``_lower(a)``
    holds the L that keys TC's ``triangle_streams(L)``): when its own
    object dies, one call purges both entries."""
    lru = IdentityLRU(8)
    outer = Box()
    inner = Box()
    lru.put(("derive",), [outer], (inner,))
    lru.put(("scan",), [inner, inner], "positions")
    del inner
    assert len(lru) == 2
    del outer
    assert len(lru) == 0
    assert lru._dead == []


def test_collection_during_put_neither_deadlocks_nor_leaks():
    """An object that dies while another thread's ``put`` holds the
    lock only records its entry; the next call purges it."""
    lru = IdentityLRU(512)
    doomed, live = np.arange(64), np.arange(64) * 2
    lru.put(("doomed",), [doomed], "value")
    assert len(lru) == 1

    class CollectOnInsert(OrderedDict):
        def __setitem__(self, key, item):
            gc.collect()  # inside put, under the lock
            super().__setitem__(key, item)

    lru._entries = CollectOnInsert(lru._entries)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        cycle = [doomed]
        cycle.append(cycle)  # reachable only through a cycle now
        del doomed, cycle
        worker = threading.Thread(
            target=lru.put, args=(("live",), [live], "value"), daemon=True)
        worker.start()
        worker.join(timeout=30)
    finally:
        if was_enabled:
            gc.enable()
    assert not worker.is_alive(), "put deadlocked on a collection"
    assert len(lru) == 1
    assert lru.get(("live",), [live]) == "value"
