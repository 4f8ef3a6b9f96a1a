"""Metric primitives of the telemetry layer.

Four instrument kinds cover everything the simulator needs to report:

* :class:`Counter` — monotonically accumulated event counts (iterations,
  outQ records, cache hits).
* :class:`Gauge` — a last-value-wins reading with a high-water mark
  (queue depths, cells/sec of the last batch).
* :class:`Histogram` — power-of-two bucketed distributions (cycle
  counts, record sizes).
* :class:`Timer` — wall-clock accumulation with count/min/max, usable as
  a context manager.

Each kind has a ``Null*`` twin whose mutating methods are no-ops; the
module-level API in :mod:`repro.obs` hands those out whenever telemetry
is disabled, so instrumented call sites pay one attribute call and
nothing else on the disabled path.
"""

from __future__ import annotations

import math
import time


class Counter:
    """A named, monotonically accumulated count."""

    __slots__ = ("name", "value")

    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0

    def add(self, n: float = 1) -> None:
        self.value += n

    def as_dict(self) -> float:
        return self.value

    def merge(self, data: float) -> None:
        self.value += data

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A last-written value plus the high-water mark it ever reached."""

    __slots__ = ("name", "value", "high_water")

    kind = "gauge"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0
        self.high_water: float = 0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.high_water:
            self.high_water = value

    def as_dict(self) -> dict:
        return {"value": self.value, "high_water": self.high_water}

    def merge(self, data: dict) -> None:
        self.set(data["value"])
        if data["high_water"] > self.high_water:
            self.high_water = data["high_water"]

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.value}, hwm={self.high_water})"


class Histogram:
    """A power-of-two bucketed distribution.

    ``record(v)`` files ``v`` under bucket ``ceil(log2(v))`` (bucket 0
    holds values <= 1); count/sum/min/max are tracked exactly, so means
    are exact and only the shape is quantized.
    """

    __slots__ = ("name", "count", "total", "min", "max", "buckets")

    kind = "histogram"

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total: float = 0.0
        self.min: float = math.inf
        self.max: float = -math.inf
        self.buckets: dict[int, int] = {}

    @staticmethod
    def bucket_of(value: float) -> int:
        if value <= 1:
            return 0
        return math.ceil(math.log2(value))

    def record(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        b = self.bucket_of(value)
        self.buckets[b] = self.buckets.get(b, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``0 <= q <= 1``) from the bucket
        shape, interpolating linearly inside the winning power-of-two
        bucket and clamping to the exact [min, max] envelope.  Returns
        0.0 for an empty histogram."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile q must be in [0, 1], got {q}")
        if not self.count:
            return 0.0
        target = q * self.count
        seen = 0
        for b in sorted(self.buckets):
            n = self.buckets[b]
            if seen + n >= target:
                lo = 0.0 if b == 0 else 2.0 ** (b - 1)
                hi = 1.0 if b == 0 else 2.0**b
                frac = (target - seen) / n
                return min(max(lo + frac * (hi - lo), self.min), self.max)
            seen += n
        return self.max

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "buckets": {str(b): n for b, n in sorted(self.buckets.items())},
        }

    def merge(self, data: dict) -> None:
        if not data["count"]:
            return
        self.count += data["count"]
        self.total += data["total"]
        self.min = min(self.min, data["min"])
        self.max = max(self.max, data["max"])
        for b, n in data["buckets"].items():
            b = int(b)
            self.buckets[b] = self.buckets.get(b, 0) + n

    def __repr__(self) -> str:
        return f"Histogram({self.name}, n={self.count}, mean={self.mean:.3g})"


class Timer:
    """Accumulated wall-clock time with count/min/max, in seconds.

    Use as a context manager around the timed region::

        with registry.timer("sim.memsys.profile"):
            ...

    or feed externally measured durations through :meth:`observe`.

    The context manager is exception-safe (elapsed time is recorded even
    when the body raises) and reentrant: nested ``with`` blocks on the
    *same* timer keep their start times on a stack, so each level
    observes its own elapsed interval.
    """

    __slots__ = ("name", "count", "total", "min", "max", "_starts")

    kind = "timer"

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._starts: list[float] = []

    def observe(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        if seconds < self.min:
            self.min = seconds
        if seconds > self.max:
            self.max = seconds

    def __enter__(self) -> "Timer":
        self._starts.append(time.perf_counter())
        return self

    def __exit__(self, *exc) -> None:
        if self._starts:
            self.observe(time.perf_counter() - self._starts.pop())

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "total_s": self.total,
            "min_s": self.min if self.count else 0.0,
            "max_s": self.max if self.count else 0.0,
        }

    def merge(self, data: dict) -> None:
        if not data["count"]:
            return
        self.count += data["count"]
        self.total += data["total_s"]
        self.min = min(self.min, data["min_s"])
        self.max = max(self.max, data["max_s"])

    def __repr__(self) -> str:
        return f"Timer({self.name}, n={self.count}, total={self.total:.3g}s)"


class _NullTimer:
    """No-op timer handed out when telemetry is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc) -> None:
        pass


#: the shared no-op timer (the disabled fast path allocates nothing)
NULL_TIMER = _NullTimer()
