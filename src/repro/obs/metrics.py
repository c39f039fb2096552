"""Counters, fixed-bucket histograms and the per-run metrics registry.

The registry is the aggregate side of the observability layer: where
the tracer streams *events*, the registry keeps O(1)-sized summaries —
monotonic counters (log writes taken/skipped, AddrMap traffic) and
fixed-bucket histograms (checkpoint bytes, slice lengths, AddrMap
occupancy, recompute latency).  At every checkpoint the simulator calls
:meth:`MetricsRegistry.snapshot_interval`, recording the counter deltas
of the closing interval, so per-interval behaviour survives into the
aggregate without keeping the event stream.

The whole registry serialises to plain JSON (strict inverse, like the
rest of :mod:`repro.sim.results`): an :class:`ObsReport` rides on
``RunResult.obs`` through ``to_payload``/``from_payload`` and the persistent
result cache — a corrupt blob raises, which cache readers classify as
a miss.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.util.tables import format_table
from repro.util.validation import require_fields

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "ObsReport",
    "DEFAULT_BUCKETS",
]

#: Fallback histogram bucket upper edges (geometric, wide dynamic range).
_GENERIC_BUCKETS: Tuple[float, ...] = tuple(
    float(4**k) for k in range(0, 12)
)

#: Fixed bucket edges per well-known metric.  Units follow the metric
#: name suffix (``_bytes``, ``_ns``); unlisted names use the generic
#: geometric ladder.
DEFAULT_BUCKETS: Dict[str, Tuple[float, ...]] = {
    "ckpt.logged_bytes": tuple(float(2**k) for k in range(6, 24, 2)),
    "ckpt.flushed_bytes": tuple(float(2**k) for k in range(6, 24, 2)),
    "ckpt.boundary_ns": tuple(float(10**k) for k in range(0, 9)),
    "ckpt.barrier_ns": tuple(float(2**k) for k in range(0, 12)),
    "addrmap.occupancy": tuple(float(2**k) for k in range(0, 16)),
    "recovery.slice_length": (1.0, 2.0, 4.0, 6.0, 8.0, 12.0, 16.0, 32.0),
    "recovery.slice_recompute_ns": tuple(float(2**k) for k in range(0, 12)),
    "recovery.total_ns": tuple(float(10**k) for k in range(0, 10)),
    # Supervised-execution (harness wall-clock) scales: ~4 ms .. ~2 min.
    "resilience.attempt_seconds": tuple(2.0**k / 256.0 for k in range(0, 15)),
    "resilience.backoff_seconds": tuple(2.0**k / 256.0 for k in range(0, 15)),
}


class Counter:
    """A named monotonic counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: int = 0) -> None:
        self.name = name
        self.value = value

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (must be non-negative — counters never go down)."""
        if n < 0:
            raise ValueError(f"counter {self.name}: negative increment {n}")
        self.value += n

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Counter({self.name}={self.value})"


class Histogram:
    """A fixed-bucket histogram (upper-edge buckets plus overflow).

    ``counts[i]`` is the number of observations ``<= buckets[i]`` (and
    greater than the previous edge); ``counts[-1]`` is the overflow
    bucket.  ``count``/``total``/``min``/``max`` summarise the stream.
    """

    __slots__ = ("name", "buckets", "counts", "count", "total", "min", "max")

    def __init__(self, name: str, buckets: Sequence[float]) -> None:
        edges = tuple(float(b) for b in buckets)
        if not edges or list(edges) != sorted(set(edges)):
            raise ValueError(
                f"histogram {name}: bucket edges must be strictly "
                f"ascending and non-empty, got {buckets!r}"
            )
        self.name = name
        self.buckets = edges
        self.counts = [0] * (len(edges) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        """Record one observation."""
        v = float(value)
        self.counts[bisect_left(self.buckets, v)] += 1
        self.count += 1
        self.total += v
        self.min = v if self.min is None else min(self.min, v)
        self.max = v if self.max is None else max(self.max, v)

    @property
    def mean(self) -> float:
        """Mean of the observed values (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Histogram({self.name}, n={self.count}, mean={self.mean:.3g})"


class MetricsRegistry:
    """Per-run collection of counters, histograms and interval snapshots."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}
        #: Per-interval counter deltas: one dict per closed interval,
        #: ``{"index": k, "<counter>": delta, ...}`` (zero deltas kept
        #: out to stay compact).
        self.intervals: List[Dict[str, int]] = []
        self._marks: Dict[str, int] = {}

    # -- registration --------------------------------------------------------
    def counter(self, name: str) -> Counter:
        """The counter called ``name`` (created on first use)."""
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        """The histogram called ``name`` (created on first use).

        Bucket edges come from ``buckets``, else :data:`DEFAULT_BUCKETS`,
        else a generic geometric ladder; they are fixed at creation.
        """
        h = self._histograms.get(name)
        if h is None:
            edges = (
                tuple(buckets)
                if buckets is not None
                else DEFAULT_BUCKETS.get(name, _GENERIC_BUCKETS)
            )
            h = self._histograms[name] = Histogram(name, edges)
        return h

    # -- interval aggregation -------------------------------------------------
    def snapshot_interval(self, index: int) -> Dict[str, int]:
        """Close interval ``index``: record counter deltas since the
        previous snapshot and advance the marks."""
        snap: Dict[str, int] = {"index": index}
        for name, c in sorted(self._counters.items()):
            delta = c.value - self._marks.get(name, 0)
            self._marks[name] = c.value
            if delta:
                snap[name] = delta
        self.intervals.append(snap)
        return snap

    # -- queries --------------------------------------------------------------
    def counters_dict(self) -> Dict[str, int]:
        """Counter name -> value."""
        return {name: c.value for name, c in sorted(self._counters.items())}

    def histograms_list(self) -> List[Histogram]:
        """All histograms, name-sorted."""
        return [self._histograms[k] for k in sorted(self._histograms)]

    # -- serialisation ---------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe mapping (strict inverse: :meth:`from_dict`)."""
        return {
            "counters": self.counters_dict(),
            "histograms": {
                name: {
                    "buckets": list(h.buckets),
                    "counts": list(h.counts),
                    "count": h.count,
                    "total": h.total,
                    "min": h.min,
                    "max": h.max,
                }
                for name, h in sorted(self._histograms.items())
            },
            "intervals": [dict(snap) for snap in self.intervals],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MetricsRegistry":
        """Rebuild from :meth:`to_dict` output.

        Strict: any structural drift raises ``ValueError``/``TypeError``
        so cache readers can classify corrupt payloads as misses.
        """
        if not isinstance(data, dict):
            raise ValueError(
                f"MetricsRegistry: expected a mapping, got {type(data)}"
            )
        unknown = set(data) - {"counters", "histograms", "intervals"}
        if unknown:
            raise ValueError(
                f"MetricsRegistry: unknown fields {sorted(unknown)}"
            )
        reg = cls()
        counters = data["counters"]
        if not isinstance(counters, dict):
            raise ValueError("MetricsRegistry: counters must be a mapping")
        for name, value in counters.items():
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(
                    f"MetricsRegistry: counter {name!r} value {value!r} "
                    f"is not an int"
                )
            reg.counter(name).value = value
            reg._marks[name] = value
        histograms = data["histograms"]
        if not isinstance(histograms, dict):
            raise ValueError("MetricsRegistry: histograms must be a mapping")
        for name, doc in histograms.items():
            if not isinstance(doc, dict) or set(doc) != {
                "buckets", "counts", "count", "total", "min", "max",
            }:
                raise ValueError(
                    f"MetricsRegistry: malformed histogram {name!r}"
                )
            h = reg.histogram(name, doc["buckets"])
            counts = doc["counts"]
            if (
                not isinstance(counts, list)
                or len(counts) != len(h.buckets) + 1
                or not all(isinstance(n, int) and n >= 0 for n in counts)
            ):
                raise ValueError(
                    f"MetricsRegistry: histogram {name!r} counts do not "
                    f"match its buckets"
                )
            h.counts = list(counts)
            h.count = int(doc["count"])
            h.total = float(doc["total"])
            h.min = None if doc["min"] is None else float(doc["min"])
            h.max = None if doc["max"] is None else float(doc["max"])
            if h.count != sum(h.counts):
                raise ValueError(
                    f"MetricsRegistry: histogram {name!r} count "
                    f"{h.count} != sum of bucket counts"
                )
        intervals = data["intervals"]
        if not isinstance(intervals, list):
            raise ValueError("MetricsRegistry: intervals must be a list")
        for snap in intervals:
            if not isinstance(snap, dict) or "index" not in snap:
                raise ValueError("MetricsRegistry: malformed interval snapshot")
            reg.intervals.append(dict(snap))
        return reg

    # -- reports ---------------------------------------------------------------
    def summary_table(self) -> str:
        """Counter + histogram summary rendered via the shared formatter."""
        parts: List[str] = []
        counters = self.counters_dict()
        if counters:
            parts.append(
                format_table(
                    ["counter", "value"],
                    [[k, v] for k, v in counters.items()],
                    title="counters",
                )
            )
        hists = self.histograms_list()
        if hists:
            parts.append(
                format_table(
                    ["histogram", "n", "mean", "min", "max"],
                    [
                        [
                            h.name,
                            h.count,
                            round(h.mean, 2),
                            0.0 if h.min is None else h.min,
                            0.0 if h.max is None else h.max,
                        ]
                        for h in hists
                    ],
                    title="histograms",
                )
            )
        if self.intervals:
            parts.append(f"interval snapshots: {len(self.intervals)}")
        return "\n\n".join(parts) if parts else "no metrics recorded"


@dataclass
class ObsReport:
    """The observability payload attached to ``RunResult.obs``.

    Carries the metrics registry plus the tracer's capture accounting
    (the raw event stream itself stays with the tracer — it is
    unbounded and never enters the result cache).
    """

    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    events_captured: int = 0
    events_dropped: int = 0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe mapping (strict inverse: :meth:`from_dict`)."""
        return {
            "metrics": self.metrics.to_dict(),
            "events_captured": self.events_captured,
            "events_dropped": self.events_dropped,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ObsReport":
        """Rebuild from :meth:`to_dict` output (strict — corrupt blobs
        raise, so cache readers degrade to a miss, never a crash)."""
        require_fields(data, cls, "ObsReport")
        for label in ("events_captured", "events_dropped"):
            n = data[label]
            if not isinstance(n, int) or isinstance(n, bool) or n < 0:
                raise ValueError(f"ObsReport: {label} must be a non-negative "
                                 f"int, got {n!r}")
        return cls(
            metrics=MetricsRegistry.from_dict(data["metrics"]),
            events_captured=data["events_captured"],
            events_dropped=data["events_dropped"],
        )

    def summary_table(self) -> str:
        """Metrics summary plus the capture line."""
        table = self.metrics.summary_table()
        return (
            f"{table}\n\nevents: {self.events_captured} captured / "
            f"{self.events_dropped} dropped"
        )
