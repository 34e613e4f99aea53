"""Process-local metrics registry: counters, gauges, histograms.

The inspector and runtime report *what happened* through named metrics —
vertices coarsened, the PGP seen at every LBP merge decision, bin-pack
occupancy, schedule-cache hits, fault-site triggers — and the registry
turns them into one JSON document.  Instruments are created on first use
(``registry.counter("schedule_cache.hits").inc()``) so call sites never
need registration boilerplate, and every instrument is thread-safe.

Naming convention: dotted ``subsystem.metric`` names
(``inspector.vertices_coarsened``, ``binpack.occupancy``,
``resilience.faults_fired``).  Histograms keep full summary statistics
plus fixed decade-style buckets, which is enough to reconstruct the
paper-style distributions without storing every observation.
"""

from __future__ import annotations

import json
import threading
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: Union[int, float] = 1) -> None:
        if amount < 0:
            raise ValueError("counters only increase; use a gauge for ups and downs")
        with self._lock:
            self.value += amount

    def as_dict(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """Last-written value (plus min/max watermarks)."""

    __slots__ = ("name", "value", "min", "max", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Optional[float] = None
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._lock = threading.Lock()

    def set(self, value: Union[int, float]) -> None:
        v = float(value)
        with self._lock:
            self.value = v
            self.min = v if self.min is None else min(self.min, v)
            self.max = v if self.max is None else max(self.max, v)

    def as_dict(self) -> dict:
        return {"type": "gauge", "value": self.value, "min": self.min, "max": self.max}


#: Default histogram bucket upper bounds: decade ladder spanning the
#: quantities we observe (ratios around 1e-3..1, counts up to 1e6).
DEFAULT_BUCKETS = (
    0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0, 2.5, 10.0, 100.0, 1e4, 1e6,
)


class Histogram:
    """Summary statistics plus cumulative bucket counts.

    ``buckets`` are upper bounds (an implicit ``+inf`` bucket catches the
    rest).  ``observe`` is O(len(buckets)); with the default 13 buckets the
    cost is negligible next to the work being measured.
    """

    __slots__ = ("name", "buckets", "bucket_counts", "count", "sum", "min", "max", "_lock")

    def __init__(self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self.name = name
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")
        self.bucket_counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._lock = threading.Lock()

    def observe(self, value: Union[int, float]) -> None:
        v = float(value)
        with self._lock:
            self.count += 1
            self.sum += v
            self.min = v if self.min is None else min(self.min, v)
            self.max = v if self.max is None else max(self.max, v)
            for i, bound in enumerate(self.buckets):
                if v <= bound:
                    self.bucket_counts[i] += 1
                    return
            self.bucket_counts[-1] += 1

    def observe_many(self, values: Sequence[Union[int, float]]) -> None:
        """Record a batch under one lock, bucketed vectorially.

        ``searchsorted`` against the sorted bounds reproduces the scalar
        path's ``v <= bound`` rule exactly (overflow lands past the last
        bound, i.e. in the +inf bucket), which is what lets the replay
        harness stream millions of latencies without a Python-level loop.
        """
        vals = np.asarray(values if hasattr(values, "__len__") else list(values), dtype=float)
        if vals.size == 0:
            return
        idx = np.searchsorted(np.asarray(self.buckets), vals, side="left")
        per_bucket = np.bincount(idx, minlength=len(self.buckets) + 1)
        with self._lock:
            self.count += int(vals.size)
            self.sum += float(vals.sum())
            lo, hi = float(vals.min()), float(vals.max())
            self.min = lo if self.min is None else min(self.min, lo)
            self.max = hi if self.max is None else max(self.max, hi)
            for i, n in enumerate(per_bucket):
                self.bucket_counts[i] += int(n)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> Optional[float]:
        """Bucket-interpolated quantile estimate (``None`` when empty).

        Accuracy is bounded by the bucket ladder — good enough for the
        decade-scale questions the registry answers ("where does the p95
        land"), not a substitute for the benchmark's full sample sets.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        with self._lock:
            if self.count == 0:
                return None
            target = q * self.count
            seen = 0
            lo = self.min if self.min is not None else 0.0
            for i, bound in enumerate(self.buckets):
                n = self.bucket_counts[i]
                if n and seen + n >= target:
                    lower = lo if i == 0 else self.buckets[i - 1]
                    lower = max(lower, self.min if self.min is not None else lower)
                    upper = min(bound, self.max if self.max is not None else bound)
                    frac = (target - seen) / n
                    return lower + frac * (upper - lower)
                seen += n
            return self.max

    def as_dict(self) -> dict:
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "buckets": list(self.buckets),
            "bucket_counts": list(self.bucket_counts),
        }


class MetricsRegistry:
    """Name -> instrument map with create-on-first-use accessors.

    Asking for an existing name with a different instrument type raises —
    a typo'd metric silently splitting into two instruments is exactly the
    reporting bug this layer exists to prevent.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, object] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, cls, *args):
        inst = self._instruments.get(name)
        if inst is None:
            with self._lock:
                inst = self._instruments.get(name)
                if inst is None:
                    inst = cls(name, *args)
                    self._instruments[name] = inst
        if not isinstance(inst, cls):
            raise TypeError(
                f"metric {name!r} is a {type(inst).__name__}, requested {cls.__name__}"
            )
        return inst

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._get(name, Histogram, buckets)

    # ------------------------------------------------------------------
    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __len__(self) -> int:
        return len(self._instruments)

    def as_dict(self) -> dict:
        """All instruments as one JSON-safe document (sorted by name)."""
        with self._lock:
            items = sorted(self._instruments.items())
        return {name: inst.as_dict() for name, inst in items}

    def to_json(self, *, indent: int = 1) -> str:
        return json.dumps({"version": 1, "metrics": self.as_dict()}, indent=indent)

    def clear(self) -> None:
        with self._lock:
            self._instruments.clear()
