"""The metrics substrate: counters, gauges, and latency histograms.

One :class:`MetricsRegistry` per deployment is the single place every
stats producer (executor, proxy, cache, browser pool, pipeline spans)
registers its instruments.  :class:`CounterView` is the one way a
producer keeps named fields over them: ``RuntimeStats``, ``CacheStats``,
``ProxyCounters`` and ``PoolStats`` are each a ``{field: (metric,
help)}`` table over it, so the Figure 7 bench, the Prometheus endpoint,
and the CLI all read the same numbers.

Design points:

* Every instrument is individually thread-safe (one small lock per
  instrument; producers never contend on a registry-wide lock).
* Histograms use fixed buckets so concurrent observers and per-thread
  registries can be merged exactly: merging is bucket-wise addition,
  which is associative and commutative, and conserves the observation
  count.
* Percentiles (p50/p90/p99) are estimated by linear interpolation
  inside the owning bucket, clamped to the observed min/max so the
  estimate is monotone in the quantile and never leaves the data range.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

_INF = float("inf")

# Default latency buckets: sub-millisecond lightweight proxy work up to
# the tens-of-seconds mobile page loads the Table 1 model produces.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

LabelDict = Mapping[str, str]


def _label_key(labels: Optional[LabelDict]) -> tuple[tuple[str, str], ...]:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Metric:
    """Base instrument: a name, optional labels, and a tiny lock."""

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help_text: str = "",
        labels: Optional[LabelDict] = None,
    ) -> None:
        if not name:
            raise ValueError("metric needs a name")
        self.name = name
        self.help_text = help_text
        self.labels = dict(labels or {})
        self._lock = threading.Lock()

    @property
    def label_key(self) -> tuple[tuple[str, str], ...]:
        return _label_key(self.labels)


class Counter(Metric):
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self, name, help_text="", labels=None) -> None:
        super().__init__(name, help_text, labels)
        self._value = 0.0

    def inc(self, by: float = 1.0) -> None:
        if by < 0:
            raise ValueError(f"counter {self.name} can only increase")
        with self._lock:
            self._value += by

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge(Metric):
    """A value that can move in both directions (or track a peak)."""

    kind = "gauge"

    def __init__(self, name, help_text="", labels=None) -> None:
        super().__init__(name, help_text, labels)
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, by: float = 1.0) -> None:
        with self._lock:
            self._value += by

    def dec(self, by: float = 1.0) -> None:
        self.inc(-by)

    def track_max(self, value: float) -> None:
        """Atomically raise the gauge to ``value`` if it is higher."""
        with self._lock:
            if value > self._value:
                self._value = value

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


@dataclass(frozen=True)
class HistogramSnapshot:
    """A consistent, immutable copy of a histogram's state."""

    buckets: tuple[float, ...]  # upper bounds, ascending, no +Inf
    counts: tuple[int, ...]  # len(buckets) + 1; last is the overflow
    count: int
    sum: float
    min: float  # 0.0 when empty
    max: float  # 0.0 when empty

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the q-quantile by interpolating inside the bucket."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be within [0, 1]")
        if self.count == 0:
            return 0.0
        target = q * self.count
        cumulative = 0
        lower = 0.0
        bounds = self.buckets + (_INF,)
        for index, upper in enumerate(bounds):
            bucket_count = self.counts[index]
            if bucket_count:
                if cumulative + bucket_count >= target:
                    hi = self.max if upper == _INF else min(upper, self.max)
                    lo = min(max(lower, self.min), hi)
                    fraction = (target - cumulative) / bucket_count
                    # lo + (hi - lo) can round a ULP past hi; clamp so
                    # the estimate never leaves the observed range.
                    return min(max(lo + (hi - lo) * fraction, lo), hi)
                cumulative += bucket_count
            lower = upper
        return self.max

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p90(self) -> float:
        return self.quantile(0.90)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)


class Histogram(Metric):
    """Fixed-bucket latency histogram, mergeable across threads."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str = "",
        labels: Optional[LabelDict] = None,
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        super().__init__(name, help_text, labels)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if list(bounds) != sorted(set(bounds)):
            raise ValueError("bucket bounds must be strictly ascending")
        if bounds[-1] == _INF:
            bounds = bounds[:-1]  # the overflow bucket is implicit
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._min = _INF
        self._max = -_INF

    def observe(self, value: float) -> None:
        value = float(value)
        index = bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    def merge(self, other: "Histogram | HistogramSnapshot") -> None:
        """Fold another histogram (same bounds) into this one."""
        snap = other.snapshot() if isinstance(other, Histogram) else other
        if snap.buckets != self.buckets:
            raise ValueError(
                f"cannot merge histograms with different buckets: "
                f"{snap.buckets} vs {self.buckets}"
            )
        with self._lock:
            for index, bucket_count in enumerate(snap.counts):
                self._counts[index] += bucket_count
            self._count += snap.count
            self._sum += snap.sum
            if snap.count:
                self._min = min(self._min, snap.min)
                self._max = max(self._max, snap.max)

    def snapshot(self) -> HistogramSnapshot:
        with self._lock:
            empty = self._count == 0
            return HistogramSnapshot(
                buckets=self.buckets,
                counts=tuple(self._counts),
                count=self._count,
                sum=self._sum,
                min=0.0 if empty else self._min,
                max=0.0 if empty else self._max,
            )

    # Convenience reads for the stats views' read-through properties.

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def max(self) -> float:
        with self._lock:
            return self._max if self._count else 0.0

    @property
    def min(self) -> float:
        with self._lock:
            return self._min if self._count else 0.0

    def quantile(self, q: float) -> float:
        return self.snapshot().quantile(q)


@dataclass
class MetricFamily:
    """All instruments sharing one metric name."""

    name: str
    kind: str
    help_text: str
    children: dict[tuple[tuple[str, str], ...], Metric]

    def sorted_children(self) -> list[Metric]:
        return [self.children[key] for key in sorted(self.children)]


class MetricsRegistry:
    """A directory of instruments; the unit of exposition and merging.

    Instruments can be created through the registry (get-or-create) or
    created standalone by a stats struct and :meth:`register`-ed later —
    registration shares the *object*, so a struct bound to a deployment
    registry keeps exactly one set of numbers.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, MetricFamily] = {}

    # -- registration ----------------------------------------------------

    def register(self, metric: Metric) -> Metric:
        with self._lock:
            family = self._families.get(metric.name)
            if family is None:
                family = MetricFamily(
                    name=metric.name,
                    kind=metric.kind,
                    help_text=metric.help_text,
                    children={},
                )
                self._families[metric.name] = family
            if family.kind != metric.kind:
                raise ValueError(
                    f"{metric.name} already registered as {family.kind}"
                )
            existing = family.children.get(metric.label_key)
            if existing is not None:
                if existing is metric:
                    return metric  # idempotent re-registration
                raise ValueError(
                    f"{metric.name}{dict(metric.label_key)} already registered"
                )
            family.children[metric.label_key] = metric
            if not family.help_text and metric.help_text:
                family.help_text = metric.help_text
            return metric

    def _get_or_create(self, factory, name, help_text, labels, **kwargs):
        key = _label_key(labels)
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                existing = family.children.get(key)
                if existing is not None:
                    return existing
        metric = factory(name, help_text, labels, **kwargs)
        try:
            return self.register(metric)
        except ValueError:
            # Lost a creation race; the winner is in the registry now.
            found = self.get(name, labels)
            if found is not None:
                return found
            raise

    def counter(self, name, help_text="", labels=None) -> Counter:
        return self._get_or_create(Counter, name, help_text, labels)

    def gauge(self, name, help_text="", labels=None) -> Gauge:
        return self._get_or_create(Gauge, name, help_text, labels)

    def histogram(
        self, name, help_text="", labels=None,
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help_text, labels, buckets=buckets
        )

    # -- reading ---------------------------------------------------------

    def get(self, name: str, labels=None) -> Optional[Metric]:
        with self._lock:
            family = self._families.get(name)
            if family is None:
                return None
            return family.children.get(_label_key(labels))

    def children(self, name: str) -> list[Metric]:
        """Every labelled child of family ``name``, label-sorted; ``[]``
        when the family is absent."""
        with self._lock:
            family = self._families.get(name)
        return family.sorted_children() if family is not None else []

    def total(self, name: str) -> float:
        """The sum of family ``name``'s children; 0 when it is absent."""
        return sum(metric.value for metric in self.children(name))

    def collect(self) -> list[MetricFamily]:
        """Families sorted by name, for stable exposition."""
        with self._lock:
            return [
                self._families[name] for name in sorted(self._families)
            ]

    def merge_from(self, other: "MetricsRegistry") -> None:
        """Fold another registry (e.g. a per-thread one) into this one."""
        for family in other.collect():
            for metric in family.sorted_children():
                if isinstance(metric, Counter):
                    self.counter(
                        family.name, family.help_text, dict(metric.labels)
                    ).inc(metric.value)
                elif isinstance(metric, Gauge):
                    self.gauge(
                        family.name, family.help_text, dict(metric.labels)
                    ).track_max(metric.value)
                elif isinstance(metric, Histogram):
                    self.histogram(
                        family.name, family.help_text, dict(metric.labels),
                        buckets=metric.buckets,
                    ).merge(metric)


class CounterView:
    """Named fields over registry counters — the one stats struct.

    A subclass is its ``FIELDS`` table, ``{field: (metric name, help)}``.
    Each field is one :class:`Counter` (individually atomic): write it
    with :meth:`record` or the multi-field :meth:`add`, read it as an
    attribute (``stats.hits``; ``*_seconds`` fields read as ``float``,
    the rest as ``int``), and :meth:`bind` the same instrument objects
    into a deployment-wide registry so ``/metrics`` and the bench read
    one set of numbers.  A subclass that owns further instruments (a
    queue-wait histogram, a depth gauge) lists them with
    :meth:`_own` so they bind along.
    """

    FIELDS: Mapping[str, tuple[str, str]] = {}

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        labels: Optional[LabelDict] = None,
        **initial: float,
    ) -> None:
        registry = registry or MetricsRegistry()
        self._counters = {
            field: registry.counter(metric, help_text, labels)
            for field, (metric, help_text) in self.FIELDS.items()
        }
        self._instruments: list[Metric] = list(self._counters.values())
        self.add(**initial)

    def _own(self, metric: Metric) -> Metric:
        self._instruments.append(metric)
        return metric

    def record(self, field: str, by: float = 1) -> None:
        self._counters[field].inc(by)

    def add(self, **deltas: float) -> None:
        """Apply every ``field=delta``; an unknown field refuses all."""
        for field in deltas:
            if field not in self._counters:
                raise TypeError(
                    f"unknown {type(self).__name__} field {field!r}"
                )
        for field, delta in deltas.items():
            self._counters[field].inc(delta)

    def bind(self, registry: MetricsRegistry) -> None:
        """Register these instruments into a shared registry."""
        for metric in self._instruments:
            registry.register(metric)

    def __getattr__(self, name: str):
        counters = self.__dict__.get("_counters")
        if counters is None or name not in counters:
            raise AttributeError(name)
        value = counters[name].value
        return value if name.endswith("_seconds") else int(value)

    def values(self) -> dict[str, float]:
        """Every field's current reading, in table order."""
        return {field: getattr(self, field) for field in self._counters}

    def __repr__(self) -> str:
        body = ", ".join(f"{k}={v!r}" for k, v in self.values().items())
        return f"{type(self).__name__}({body})"
