"""The self-observability metrics registry.

The paper sells vNetTracer on *low, measurable* overhead; this module
is how the reproduction measures its own pipeline.  It is a miniature
Prometheus-style client library with three metric kinds:

* :class:`Counter` -- monotone totals (records appended, drops, ...);
* :class:`Gauge` -- point-in-time values (ring occupancy high-water
  mark, heartbeat staleness, ...);
* :class:`Histogram` -- fixed-bound bucketed distributions (flush batch
  sizes, flush latency, ...).

Design constraints (deliberate, and load-bearing for determinism):

* **No wall-clock calls.**  Nothing here reads host time; every
  timestamp attached to a sample comes from the simulation
  :class:`~repro.sim.engine.Engine` via the caller
  (:class:`~repro.obs.sampler.StatsSampler`).
* **Fixed histogram bounds.**  Buckets are declared up front in the
  metric's :class:`MetricSpec`, so two runs of the same experiment
  export bit-identical shapes.
* **Pull-friendly.**  Counters and gauges accept *callbacks* that are
  evaluated at collection time, so hot paths that already maintain a
  counter (e.g. :attr:`BPFProgram.run_count`) need no per-event work.

Every exported metric is declared in :mod:`repro.obs.contract`, and
``docs/OBSERVABILITY.md`` documents the contract; a test diffs the two.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple, Union

_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*$")
_KINDS = ("counter", "gauge", "histogram")

# A callback may return one number (an unlabeled sample) or a mapping
# from label-value tuples to numbers (one sample per labeled child).
SampleCallback = Callable[[], Union[float, Dict[Tuple[str, ...], float]]]


class MetricError(ValueError):
    """Invalid metric declaration or usage (bad name, label mismatch...)."""


class MetricSpec(NamedTuple):
    """The exported contract of one metric: everything a consumer needs."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    help: str
    unit: str = ""
    stage: str = ""  # which pipeline stage emits it
    label_names: Tuple[str, ...] = ()
    buckets: Optional[Tuple[int, ...]] = None  # histogram upper bounds

    def validate(self) -> None:
        if not _NAME_RE.match(self.name):
            raise MetricError(f"bad metric name {self.name!r}")
        if self.kind not in _KINDS:
            raise MetricError(f"bad metric kind {self.kind!r} for {self.name}")
        for label in self.label_names:
            if not _NAME_RE.match(label):
                raise MetricError(f"bad label name {label!r} for {self.name}")
        if self.kind == "histogram":
            if not self.buckets:
                raise MetricError(f"histogram {self.name} needs bucket bounds")
            if list(self.buckets) != sorted(self.buckets) or len(set(self.buckets)) != len(
                self.buckets
            ):
                raise MetricError(f"histogram {self.name} buckets must strictly increase")
        elif self.buckets is not None:
            raise MetricError(f"{self.kind} {self.name} cannot have buckets")


def _labels_key(labels: Iterable[object]) -> Tuple[str, ...]:
    return tuple(str(value) for value in labels)


class _ScalarMetric:
    """Shared machinery for counters and gauges: stored values + callbacks."""

    __slots__ = ("spec", "_values", "_callbacks")

    def __init__(self, spec: MetricSpec):
        self.spec = spec
        self._values: Dict[Tuple[str, ...], float] = {}
        self._callbacks: List[SampleCallback] = []

    def _key(self, labels: Iterable[object]) -> Tuple[str, ...]:
        key = _labels_key(labels)
        if len(key) != len(self.spec.label_names):
            raise MetricError(
                f"{self.spec.name} expects labels {self.spec.label_names}, got {key!r}"
            )
        return key

    def add_callback(self, fn: SampleCallback) -> None:
        """Register a pull source evaluated at every collection."""
        self._callbacks.append(fn)

    def samples(self) -> List[Tuple[Tuple[str, ...], float]]:
        """(label values, value) pairs, stored + callback-merged, sorted."""
        merged = dict(self._values)
        for fn in self._callbacks:
            out = fn()
            if not isinstance(out, dict):
                out = {(): float(out)}
            for raw_key, value in out.items():
                key = self._key(raw_key)
                merged[key] = merged.get(key, 0.0) + float(value)
        return sorted(merged.items())

    def value(self, labels: Iterable[object] = ()) -> float:
        """One labeled child's current value (0.0 if never touched)."""
        wanted = self._key(labels)
        for key, value in self.samples():
            if key == wanted:
                return value
        return 0.0

    def total(self) -> float:
        """Sum over every labeled child (and callback output)."""
        return sum(value for _, value in self.samples())


class Counter(_ScalarMetric):
    """Monotone total; ``inc`` only accepts non-negative amounts."""

    def inc(self, amount: float = 1, labels: Iterable[object] = ()) -> None:
        if amount < 0:
            raise MetricError(f"counter {self.spec.name} cannot decrease ({amount})")
        key = self._key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount


class Gauge(_ScalarMetric):
    """Point-in-time value, set to whatever the instrument observes."""

    def set(self, value: float, labels: Iterable[object] = ()) -> None:
        self._values[self._key(labels)] = float(value)

    def set_max(self, value: float, labels: Iterable[object] = ()) -> None:
        """High-water-mark update: keep the larger of old and new."""
        key = self._key(labels)
        if value > self._values.get(key, float("-inf")):
            self._values[key] = float(value)


class HistogramData(NamedTuple):
    """One labeled child's state: per-bucket counts (+Inf last), sum, count."""

    bucket_counts: Tuple[int, ...]
    sum: float
    count: int


class Histogram:
    """Fixed-bound histogram; ``observe`` files a value into its bucket."""

    __slots__ = ("spec", "_data")

    def __init__(self, spec: MetricSpec):
        self.spec = spec
        self._data: Dict[Tuple[str, ...], List] = {}  # [counts list, sum, count]

    def _key(self, labels: Iterable[object]) -> Tuple[str, ...]:
        key = _labels_key(labels)
        if len(key) != len(self.spec.label_names):
            raise MetricError(
                f"{self.spec.name} expects labels {self.spec.label_names}, got {key!r}"
            )
        return key

    def observe(self, value: float, labels: Iterable[object] = ()) -> None:
        key = self._key(labels)
        state = self._data.get(key)
        if state is None:
            state = self._data[key] = [[0] * (len(self.spec.buckets) + 1), 0.0, 0]
        counts, _, _ = state
        for i, bound in enumerate(self.spec.buckets):
            if value <= bound:
                counts[i] += 1
                break
        else:
            counts[-1] += 1  # +Inf bucket
        state[1] += value
        state[2] += 1

    def data(self, labels: Iterable[object] = ()) -> HistogramData:
        state = self._data.get(self._key(labels))
        if state is None:
            return HistogramData(tuple([0] * (len(self.spec.buckets) + 1)), 0.0, 0)
        return HistogramData(tuple(state[0]), state[1], state[2])

    def samples(self) -> List[Tuple[Tuple[str, ...], HistogramData]]:
        return sorted(
            (key, HistogramData(tuple(state[0]), state[1], state[2]))
            for key, state in self._data.items()
        )

    def total(self) -> float:
        """Total observation count across labeled children."""
        return float(sum(state[2] for state in self._data.values()))

    def quantile(self, q: float, labels: Iterable[object] = ()) -> Optional[float]:
        """Implied quantile of one labeled child via the shared
        bucket->quantile estimator (``None`` if never observed)."""
        data = self.data(labels)
        return estimate_quantile(self.spec.buckets, data.bucket_counts, q)


def estimate_quantile(
    bounds: Tuple[int, ...], bucket_counts: Iterable[int], q: float
) -> Optional[float]:
    """Prometheus-style ``histogram_quantile`` over fixed buckets.

    ``bounds`` are the finite upper edges (ascending); ``bucket_counts``
    has one count per bound plus the trailing +Inf bucket.  The estimate
    interpolates linearly inside the bucket holding the ``q``-th rank
    (lower edge 0 for the first bucket); ranks landing in the +Inf
    bucket clamp to the highest finite bound.  Returns ``None`` for an
    empty histogram.  The error is bounded by the width of the bucket
    the true quantile falls in (see docs/STREAMING.md).
    """
    if not 0.0 <= q <= 1.0:
        raise MetricError(f"quantile must be in [0, 1], got {q}")
    counts = list(bucket_counts)
    if len(counts) != len(bounds) + 1:
        raise MetricError(
            f"expected {len(bounds) + 1} bucket counts (+Inf last), got {len(counts)}"
        )
    total = sum(counts)
    if total == 0:
        return None
    rank = q * total
    cumulative = 0
    for i, count in enumerate(counts):
        cumulative += count
        if cumulative >= rank and cumulative > 0:
            if i == len(bounds):
                return float(bounds[-1])
            upper = float(bounds[i])
            lower = float(bounds[i - 1]) if i else 0.0
            within = rank - (cumulative - count)
            if within < 0:
                within = 0.0
            return lower + (upper - lower) * (within / count)
    return float(bounds[-1])  # pragma: no cover - unreachable (total > 0)


Metric = Union[Counter, Gauge, Histogram]

_METRIC_CLASSES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """All metrics of one pipeline instance (one registry per tracer).

    ``register_spec`` is get-or-create: registering the same spec twice
    returns the existing metric (agents on different nodes share one
    metric via labels), while re-registering a *different* spec under
    the same name is an error.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    # -- registration ------------------------------------------------------

    def register_spec(self, spec: MetricSpec) -> Metric:
        existing = self._metrics.get(spec.name)
        if existing is not None:
            if existing.spec != spec:
                raise MetricError(
                    f"metric {spec.name!r} re-registered with a different spec"
                )
            return existing
        spec.validate()
        metric = _METRIC_CLASSES[spec.kind](spec)
        self._metrics[spec.name] = metric
        return metric

    # -- lookup ------------------------------------------------------------

    def get(self, name: str) -> Metric:
        try:
            return self._metrics[name]
        except KeyError:
            raise MetricError(f"unknown metric {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def metrics(self) -> List[Metric]:
        """All metrics ordered by (stage, name) -- the export order."""
        return sorted(self._metrics.values(), key=lambda m: (m.spec.stage, m.spec.name))

    def total(self, name: str) -> float:
        """Counter/gauge: sum over labels.  Histogram: observation count."""
        return self.get(name).total()

    # -- flattening (sampler rows, reports) --------------------------------

    def flatten(self) -> Dict[str, float]:
        """One scalar per (metric, label set), Prometheus-style keys.

        Histograms flatten to ``<name>_count{...}`` and ``<name>_sum{...}``
        (per-bucket counts stay in the full exporters only).
        """
        flat: Dict[str, float] = {}
        for metric in self.metrics():
            spec = metric.spec
            if isinstance(metric, Histogram):
                for key, data in metric.samples():
                    suffix = _label_suffix(spec.label_names, key)
                    flat[f"{spec.name}_count{suffix}"] = float(data.count)
                    flat[f"{spec.name}_sum{suffix}"] = float(data.sum)
            else:
                for key, value in metric.samples():
                    flat[f"{spec.name}{_label_suffix(spec.label_names, key)}"] = float(value)
        return flat


def _label_suffix(label_names: Tuple[str, ...], label_values: Tuple[str, ...]) -> str:
    if not label_names:
        return ""
    pairs = ",".join(
        f'{name}="{value}"' for name, value in zip(label_names, label_values)
    )
    return "{" + pairs + "}"
