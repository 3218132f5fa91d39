"""Metrics registry: counters, gauges and fixed-bucket histograms.

The numeric side of the telemetry layer.  Where spans answer "where did
*this* request's time go", metrics answer aggregate questions — cache hit
rates per tier, request counts per source, latency percentiles — with a
bounded, constant-size memory footprint:

* :class:`Counter` — monotonically increasing totals (cache hits, runs
  executed), one value per label set;
* :class:`Gauge` — last-write-wins level readings (queue depth, entries);
* :class:`Histogram` — fixed-bucket latency distributions; percentiles
  are estimated by linear interpolation inside the winning bucket, so a
  histogram costs O(#buckets) memory however many observations it absorbs.

A :class:`MetricsRegistry` is the session-level container: get-or-create
accessors (so instrumentation sites never race on "who registers first"),
a JSON-serializable snapshot, and ``merge_payload`` for folding a worker
process's snapshot into the driver's registry (counters and histogram
buckets add, gauges keep the merged-in value).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

#: Default histogram bucket upper bounds, in seconds — spanning the ~10µs
#: array-kernel aggregations up to multi-second exact solver runs.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    1e-5,
    1e-4,
    5e-4,
    1e-3,
    5e-3,
    1e-2,
    5e-2,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


def _label_key(labels: dict[str, Any]) -> tuple[tuple[str, str], ...]:
    """Canonical hashable form of a label set.

    The empty label set (every unlabelled ``inc``/``observe``) is the shared
    empty tuple, without building and sorting a generator.
    """
    if not labels:
        return ()
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


class Counter:
    """Monotonically increasing totals, one per label set.

    Parameters
    ----------
    name:
        Metric name (dotted, e.g. ``"cache.lookup"``).
    help:
        One-line description shown by the exporters.
    """

    kind = "counter"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._values: dict[tuple[tuple[str, str], ...], float] = {}

    def inc(self, value: float = 1.0, **labels: Any) -> None:
        """Add ``value`` (default 1) to the series selected by ``labels``."""
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + value

    def value(self, **labels: Any) -> float:
        """Current total of the series selected by ``labels``."""
        return self._values.get(_label_key(labels), 0.0)

    def to_payload(self) -> dict[str, Any]:
        """JSON-serializable snapshot."""
        with self._lock:
            series = [
                {"labels": dict(key), "value": value}
                for key, value in sorted(self._values.items())
            ]
        return {"name": self.name, "kind": self.kind, "help": self.help, "series": series}

    def _merge(self, series: list[dict[str, Any]]) -> None:
        with self._lock:
            for item in series:
                key = _label_key(item.get("labels", {}))
                self._values[key] = self._values.get(key, 0.0) + float(item["value"])


class Gauge:
    """Last-write-wins level readings, one per label set.

    Parameters
    ----------
    name:
        Metric name.
    help:
        One-line description shown by the exporters.
    """

    kind = "gauge"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._values: dict[tuple[tuple[str, str], ...], float] = {}

    def set(self, value: float, **labels: Any) -> None:
        """Set the series selected by ``labels`` to ``value``."""
        with self._lock:
            self._values[_label_key(labels)] = float(value)

    def value(self, **labels: Any) -> float:
        """Current reading of the series selected by ``labels``."""
        return self._values.get(_label_key(labels), 0.0)

    def to_payload(self) -> dict[str, Any]:
        """JSON-serializable snapshot."""
        with self._lock:
            series = [
                {"labels": dict(key), "value": value}
                for key, value in sorted(self._values.items())
            ]
        return {"name": self.name, "kind": self.kind, "help": self.help, "series": series}

    def _merge(self, series: list[dict[str, Any]]) -> None:
        with self._lock:
            for item in series:
                self._values[_label_key(item.get("labels", {}))] = float(item["value"])


class _HistogramSeries:
    """Bucket counts + sum/count/max of one label set."""

    __slots__ = ("buckets", "sum", "count", "max")

    def __init__(self, num_buckets: int):
        self.buckets = [0] * (num_buckets + 1)  # +1: the +Inf bucket
        self.sum = 0.0
        self.count = 0
        self.max = 0.0


class Histogram:
    """Fixed-bucket distribution of observations (latencies, sizes).

    Parameters
    ----------
    name:
        Metric name.
    help:
        One-line description shown by the exporters.
    buckets:
        Strictly increasing upper bounds; observations above the last
        bound land in an implicit +Inf bucket.  Defaults to
        :data:`DEFAULT_LATENCY_BUCKETS`.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] | None = None,
    ):
        self.name = name
        self.help = help
        bounds = tuple(buckets) if buckets is not None else DEFAULT_LATENCY_BUCKETS
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"histogram buckets must be strictly increasing: {bounds}")
        self.buckets = bounds
        self._lock = threading.Lock()
        self._series: dict[tuple[tuple[str, str], ...], _HistogramSeries] = {}

    def observe(self, value: float, **labels: Any) -> None:
        """Record one observation on the series selected by ``labels``."""
        key = _label_key(labels)
        index = bisect_left(self.buckets, value)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _HistogramSeries(len(self.buckets))
            series.buckets[index] += 1
            series.sum += value
            series.count += 1
            if value > series.max:
                series.max = value

    def count(self, **labels: Any) -> int:
        """Number of observations recorded on the series."""
        series = self._series.get(_label_key(labels))
        return series.count if series else 0

    def sum(self, **labels: Any) -> float:
        """Sum of the observations recorded on the series."""
        series = self._series.get(_label_key(labels))
        return series.sum if series else 0.0

    def percentile(self, fraction: float, **labels: Any) -> float:
        """Estimated value at ``fraction`` (0..1) of the distribution.

        The winning bucket is found from the cumulative counts and the
        value is linearly interpolated between its bounds; the +Inf bucket
        reports the maximum observation seen.

        Parameters
        ----------
        fraction:
            Quantile fraction, e.g. 0.95 for p95.
        labels:
            Label set selecting the series.
        """
        series = self._series.get(_label_key(labels))
        if series is None or series.count == 0:
            return 0.0
        target = fraction * series.count
        cumulative = 0
        for index, bucket_count in enumerate(series.buckets):
            cumulative += bucket_count
            if cumulative >= target:
                if index >= len(self.buckets):  # +Inf bucket
                    return series.max
                upper = self.buckets[index]
                lower = self.buckets[index - 1] if index > 0 else 0.0
                if bucket_count == 0:
                    return upper
                within = (target - (cumulative - bucket_count)) / bucket_count
                return lower + within * (upper - lower)
        return series.max

    def to_payload(self) -> dict[str, Any]:
        """JSON-serializable snapshot."""
        with self._lock:
            series = [
                {
                    "labels": dict(key),
                    "buckets": list(item.buckets),
                    "sum": item.sum,
                    "count": item.count,
                    "max": item.max,
                }
                for key, item in sorted(self._series.items())
            ]
        return {
            "name": self.name,
            "kind": self.kind,
            "help": self.help,
            "bounds": list(self.buckets),
            "series": series,
        }

    def _merge(self, series: list[dict[str, Any]]) -> None:
        with self._lock:
            for item in series:
                key = _label_key(item.get("labels", {}))
                mine = self._series.get(key)
                if mine is None:
                    mine = self._series[key] = _HistogramSeries(len(self.buckets))
                theirs = list(item["buckets"])
                if len(theirs) != len(mine.buckets):
                    raise ValueError(
                        f"histogram {self.name!r}: incompatible bucket layout "
                        f"({len(theirs)} vs {len(mine.buckets)})"
                    )
                for index, bucket_count in enumerate(theirs):
                    mine.buckets[index] += int(bucket_count)
                mine.sum += float(item["sum"])
                mine.count += int(item["count"])
                mine.max = max(mine.max, float(item.get("max", 0.0)))


class MetricsRegistry:
    """Session-level container of every metric instrument.

    Accessors are get-or-create and type-checked: two instrumentation
    sites asking for the same name share one instrument, asking for the
    same name with a different kind is a programming error.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    # ------------------------------------------------------------------ #
    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create the :class:`Counter` called ``name``.

        Parameters
        ----------
        name:
            Metric name.
        help:
            Description recorded on first creation.
        """
        return self._get_or_create(name, Counter, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create the :class:`Gauge` called ``name``.

        Parameters
        ----------
        name:
            Metric name.
        help:
            Description recorded on first creation.
        """
        return self._get_or_create(name, Gauge, help)

    def histogram(
        self, name: str, help: str = "", buckets: tuple[float, ...] | None = None
    ) -> Histogram:
        """Get or create the :class:`Histogram` called ``name``.

        Parameters
        ----------
        name:
            Metric name.
        help:
            Description recorded on first creation.
        buckets:
            Bucket bounds applied on first creation (later calls reuse the
            existing instrument unchanged).
        """
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = Histogram(name, help, buckets)
            elif not isinstance(metric, Histogram):
                raise TypeError(
                    f"metric {name!r} already registered as {metric.kind}"
                )
            return metric

    def _get_or_create(self, name: str, cls, help: str):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = cls(name, help)
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} already registered as {metric.kind}"
                )
            return metric

    def get(self, name: str) -> Counter | Gauge | Histogram | None:
        """The instrument called ``name``, or ``None``.

        Parameters
        ----------
        name:
            Metric name to look up.
        """
        return self._metrics.get(name)

    def __len__(self) -> int:
        return len(self._metrics)

    # ------------------------------------------------------------------ #
    def to_payload(self) -> list[dict[str, Any]]:
        """JSON-serializable snapshot of every instrument, sorted by name."""
        with self._lock:
            metrics = sorted(self._metrics.values(), key=lambda metric: metric.name)
        return [metric.to_payload() for metric in metrics]

    def merge_payload(self, payload: list[dict[str, Any]]) -> None:
        """Fold a snapshot (e.g. a worker process's) into this registry.

        Counters and histogram buckets add; gauges take the merged-in
        value.  Instruments missing here are created with the snapshot's
        kind and layout.

        Parameters
        ----------
        payload:
            A list previously produced by :meth:`to_payload`.
        """
        for item in payload:
            kind = item["kind"]
            if kind == "counter":
                self.counter(item["name"], item.get("help", ""))._merge(item["series"])
            elif kind == "gauge":
                self.gauge(item["name"], item.get("help", ""))._merge(item["series"])
            elif kind == "histogram":
                self.histogram(
                    item["name"], item.get("help", ""), tuple(item["bounds"])
                )._merge(item["series"])
            else:
                raise ValueError(f"unknown metric kind {kind!r}")

    def __repr__(self) -> str:
        return f"MetricsRegistry(metrics={len(self._metrics)})"
