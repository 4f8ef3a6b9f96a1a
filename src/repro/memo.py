"""The identity memo: a bounded LRU keyed by a plain key plus the
identity of some objects, which it holds weakly.

Every identity-keyed memo of the package is an :class:`IdentityLRU`:
the operand memo of :mod:`repro.kernels.common` (keyed by a function's
operands) and the walk cache's memory tier and first-level memo in
:mod:`repro.sim.memsys` (keyed by the walked streams' indexes).  An
entry lives exactly as long as its objects do, or until the bound
evicts it.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict

import numpy as np


#: Values that hold no array, which :func:`_read_only` does not visit.
_LEAVES = (int, float, str, type(None))


def _read_only(value) -> None:
    """Mark every array reachable from ``value`` through tuples, lists
    and instance attributes read-only: memo callers share them, so an
    in-place write must raise instead of corrupting another caller."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
        return
    if isinstance(value, (tuple, list)):
        items = value
    elif hasattr(value, "__dict__"):
        items = vars(value).values()
    else:
        return
    for item in items:
        if not isinstance(item, _LEAVES):
            _read_only(item)


class IdentityLRU:
    """A bounded LRU keyed by a plain key plus the identity of objects.

    :meth:`get` and :meth:`put` key an entry by ``key`` and the ``id``
    of each object in ``objs``.  The entry holds each object by
    ``weakref``, and a hit needs every reference to resolve to the
    caller's own object, so an ``id`` that a new object took over never
    serves a dead object's value.  A put marks the arrays of the
    objects (each once, when it first keys an entry) and of the value
    read-only: while an entry lives, an identity hit implies equal
    content.

    No entry outlives its objects.  A dying object's weakref callback
    only records the entry's key; the next ``get``, ``put`` or ``len``
    purges the recorded keys under the lock, so a collection that runs
    inside a call cannot deadlock.  The purge runs to a fixed point: a
    purged value may hold the last reference to another entry's object,
    and that entry goes in the same call.  The bound counts live
    entries; at ``maxsize`` a put evicts the least recently used one.

    Objects must support weak references (a put raises ``TypeError``
    otherwise), and a value is never ``None``: :meth:`get` returns
    ``None`` on a miss.
    """

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        self._entries: OrderedDict[tuple, tuple] = OrderedDict()
        self._dead: list[tuple] = []
        self._lock = threading.Lock()
        # the objects already marked read-only, by id; an object leaves
        # with its death, so an id another object took over never
        # reads as marked
        self._marked = weakref.WeakValueDictionary()

    def _purge(self) -> None:
        """Drop the entries whose objects died (under the lock).  A key
        may since hold a newer entry of live objects, which stays."""
        while self._dead:
            key = self._dead.pop()
            entry = self._entries.get(key)
            if entry is not None and any(r() is None for r in entry[0]):
                del self._entries[key]
            # Release the value before the loop re-checks: its death
            # may record another entry's key.
            del entry

    def _mark(self, objs) -> None:
        """Mark the arrays reachable from each object read-only the
        first time it keys an entry: an object that keys many entries
        (an operand, a stream's index) is walked once.  Two threads
        that mark one object at once only walk it twice."""
        for obj in objs:
            if self._marked.get(id(obj)) is not obj:
                _read_only(obj)
                self._marked[id(obj)] = obj

    def get(self, key: tuple, objs):
        """The value stored for ``key`` and these very objects, or
        ``None``."""
        full = (key, *map(id, objs))
        with self._lock:
            self._purge()
            entry = self._entries.get(full)
            if entry is None or any(
                    r() is not o for r, o in zip(entry[0], objs)):
                return None
            self._entries.move_to_end(full)
            return entry[1]

    def put(self, key: tuple, objs, value) -> int:
        """Store ``value`` for ``key`` and ``objs``; returns how many
        entries were evicted."""
        full = (key, *map(id, objs))
        dead = self._dead

        def died(_ref, full=full) -> None:
            dead.append(full)

        refs = [weakref.ref(o, died) for o in objs]
        self._mark(objs)
        _read_only(value)
        evicted = 0
        with self._lock:
            self._purge()
            self._entries.pop(full, None)
            while len(self._entries) >= self.maxsize and self._entries:
                self._entries.popitem(last=False)
                evicted += 1
            self._entries[full] = (refs, value)
        return evicted

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._dead.clear()

    def __len__(self) -> int:
        with self._lock:
            self._purge()
            return len(self._entries)
