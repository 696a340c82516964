"""Periodic registry snapshots as time-series rows.

The :class:`StatsSampler` is scheduled on the simulation engine (never a
wall clock): every ``interval_ns`` of virtual time it flattens the
registry into one row, computes per-counter rates against the previous
row, and updates any derived rate gauges (e.g. the collector's ingest
rate).  Rows accumulate in memory; :mod:`repro.obs.export` renders them
as JSON for pipeline-health reports.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.obs import contract
from repro.obs.registry import Gauge, MetricsRegistry, _label_suffix, _labels_key
from repro.sim.engine import Engine


class StatsSampler:
    """Snapshot the registry into time-series rows on an engine timer."""

    def __init__(
        self,
        engine: Engine,
        registry: MetricsRegistry,
        interval_ns: int = 50_000_000,
    ):
        if interval_ns <= 0:
            raise ValueError(f"sampler interval must be positive, got {interval_ns}")
        self.engine = engine
        self.registry = registry
        self.interval_ns = interval_ns
        self.rows: List[Dict] = []
        self._samples_total = registry.register_spec(contract.SAMPLER_SAMPLES)
        self._prev_counters: Dict[str, float] = {}
        self._prev_t_ns: Optional[int] = None
        # The window base *before* the previous sample, so a same-instant
        # re-sample can rewind and keep its rates meaningful.
        self._prev2_counters: Dict[str, float] = {}
        self._prev2_t_ns: Optional[int] = None
        self._rate_gauges: List[tuple] = []  # (gauge, counter flat key, labels)
        self._timer = None
        self._running = False

    # -- derived gauges ----------------------------------------------------

    def add_rate_gauge(self, gauge: Gauge, counter_flat_key: str,
                       labels: tuple = ()) -> None:
        """On every sample, set ``gauge`` to the per-second rate of the
        counter identified by its flattened key (``name`` or
        ``name{label="..."}`` as produced by ``registry.flatten()``)."""
        self._rate_gauges.append((gauge, counter_flat_key, labels))

    # -- scheduling --------------------------------------------------------

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._timer = self.engine.timer(self.interval_ns, self._tick)

    def stop(self) -> None:
        self._running = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _tick(self) -> None:
        if not self._running:
            return
        self.sample_now()
        self._timer = self.engine.timer(self.interval_ns, self._tick)

    # -- sampling ----------------------------------------------------------

    def sample_now(self) -> Dict:
        """Take one snapshot immediately; returns (and stores) the row.

        Two snapshots at the same virtual instant are one sample: the
        second *replaces* the first row and recomputes rates against
        the previous window base (a zero-width window has no rate).
        This is what makes a final ``sample_now()`` after an offline
        ``collect()`` -- which lands exactly on the last periodic tick
        -- report the collection burst's ingest rate instead of 0."""
        t_ns = self.engine.now
        if self.rows and self.rows[-1]["t_ns"] == t_ns:
            self.rows.pop()
            self._prev_counters = self._prev2_counters
            self._prev_t_ns = self._prev2_t_ns
        else:
            self._samples_total.inc()
        flat = self.registry.flatten()

        rates: Dict[str, float] = {}
        dt_ns = None if self._prev_t_ns is None else t_ns - self._prev_t_ns
        counter_keys = self._counter_flat_keys()
        if dt_ns and dt_ns > 0:
            for key in counter_keys:
                delta = flat.get(key, 0.0) - self._prev_counters.get(key, 0.0)
                rates[key] = delta * 1e9 / dt_ns
        for gauge, counter_key, labels in self._rate_gauges:
            gauge.set(rates.get(counter_key, 0.0), labels)
            # Reflect the derived value in this row too.
            suffix_key = _gauge_flat_key(gauge, labels)
            flat[suffix_key] = rates.get(counter_key, 0.0)

        self._prev2_counters, self._prev2_t_ns = self._prev_counters, self._prev_t_ns
        self._prev_counters = {key: flat.get(key, 0.0) for key in counter_keys}
        self._prev_t_ns = t_ns

        row = {"t_ns": t_ns, "values": flat, "rates_per_s": rates}
        self.rows.append(row)
        return row

    def _counter_flat_keys(self) -> List[str]:
        keys = []
        for metric in self.registry.metrics():
            if metric.spec.kind != "counter":
                continue
            prefix = metric.spec.name
            for key, _ in metric.samples():
                keys.append(prefix + _label_suffix(metric.spec.label_names, key))
        return keys

    def __repr__(self) -> str:
        state = "running" if self._running else "stopped"
        return f"<StatsSampler every {self.interval_ns}ns {state} rows={len(self.rows)}>"


def _gauge_flat_key(gauge: Gauge, labels: tuple) -> str:
    return gauge.spec.name + _label_suffix(gauge.spec.label_names, _labels_key(labels))
