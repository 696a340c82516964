"""The self-observability layer: registry, sampler, exporters, contract."""

import json

import pytest

from repro.obs import contract
from repro.obs.export import prometheus_text, series_json, snapshot_dict
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricSpec,
    MetricsRegistry,
)
from repro.obs.sampler import StatsSampler
from repro.sim.engine import Engine


class TestMetricSpec:
    def test_valid_specs_pass(self):
        MetricSpec("vnt_x_total", "counter", "help").validate()
        MetricSpec("vnt_x", "gauge", "h", "ns", "agent", ("node",)).validate()
        MetricSpec("vnt_h", "histogram", "h", "ns", "agent", (), (1, 2, 4)).validate()

    @pytest.mark.parametrize(
        "spec",
        [
            MetricSpec("Bad-Name", "counter", "h"),
            MetricSpec("vnt_x", "timer", "h"),
            MetricSpec("vnt_x", "counter", "h", label_names=("Bad Label",)),
            MetricSpec("vnt_h", "histogram", "h"),  # no buckets
            MetricSpec("vnt_h", "histogram", "h", buckets=(4, 2, 1)),  # not increasing
            MetricSpec("vnt_h", "histogram", "h", buckets=(1, 1, 2)),  # duplicate
            MetricSpec("vnt_x", "counter", "h", buckets=(1, 2)),  # buckets on counter
        ],
    )
    def test_invalid_specs_rejected(self, spec):
        with pytest.raises(MetricError):
            spec.validate()


class TestCounter:
    def test_inc_and_total(self):
        c = Counter(MetricSpec("c_total", "counter", "h"))
        c.inc()
        c.inc(4)
        assert c.value() == 5
        assert c.total() == 5

    def test_negative_inc_rejected(self):
        c = Counter(MetricSpec("c_total", "counter", "h"))
        with pytest.raises(MetricError):
            c.inc(-1)

    def test_labeled_children(self):
        c = Counter(MetricSpec("c_total", "counter", "h", label_names=("node",)))
        c.inc(2, labels=("a",))
        c.inc(3, labels=("b",))
        assert c.value(("a",)) == 2
        assert c.total() == 5
        assert c.samples() == [(("a",), 2.0), (("b",), 3.0)]

    def test_label_arity_enforced(self):
        c = Counter(MetricSpec("c_total", "counter", "h", label_names=("node",)))
        with pytest.raises(MetricError):
            c.inc(1)  # missing the node label

    def test_callbacks_merge_with_stored(self):
        c = Counter(MetricSpec("c_total", "counter", "h", label_names=("node",)))
        c.inc(1, labels=("a",))
        c.add_callback(lambda: {("a",): 10, ("b",): 20})
        assert c.value(("a",)) == 11
        assert c.value(("b",)) == 20

    def test_scalar_callback_unlabeled(self):
        c = Counter(MetricSpec("c_total", "counter", "h"))
        c.add_callback(lambda: 7)
        assert c.total() == 7


class TestGauge:
    def test_set_overwrites(self):
        g = Gauge(MetricSpec("g", "gauge", "h"))
        g.set(5)
        g.set(3)
        assert g.value() == 3

    def test_set_max_ratchets(self):
        g = Gauge(MetricSpec("g", "gauge", "h"))
        g.set_max(5)
        g.set_max(3)
        assert g.value() == 5
        g.set_max(9)
        assert g.value() == 9


class TestHistogram:
    def _hist(self):
        return Histogram(
            MetricSpec("h_ns", "histogram", "h", buckets=(10, 100, 1000))
        )

    def test_observations_bucketed(self):
        h = self._hist()
        for value in (5, 10, 11, 5000):
            h.observe(value)
        data = h.data()
        # Bounds are inclusive upper edges; 5000 lands in +Inf.
        assert data.bucket_counts == (2, 1, 0, 1)
        assert data.sum == 5026
        assert data.count == 4
        assert h.total() == 4

    def test_empty_child_reads_zero(self):
        h = self._hist()
        assert h.data().count == 0
        assert h.samples() == []

    def test_labeled_children_independent(self):
        h = Histogram(
            MetricSpec("h_ns", "histogram", "h", label_names=("node",),
                       buckets=(10, 100))
        )
        h.observe(5, labels=("a",))
        h.observe(500, labels=("b",))
        assert h.data(("a",)).count == 1
        assert h.data(("b",)).bucket_counts == (0, 0, 1)


class TestRegistry:
    def test_register_is_get_or_create(self):
        reg = MetricsRegistry()
        a = reg.register_spec(contract.RING_APPENDED)
        b = reg.register_spec(contract.RING_APPENDED)
        assert a is b

    def test_conflicting_respec_rejected(self):
        reg = MetricsRegistry()
        reg.register_spec(MetricSpec("x_total", "counter", "h"))
        with pytest.raises(MetricError):
            reg.register_spec(MetricSpec("x_total", "gauge", "h"))

    def test_unknown_metric_errors(self):
        reg = MetricsRegistry()
        with pytest.raises(MetricError):
            reg.get("nope")
        assert "nope" not in reg

    def test_metrics_ordered_by_stage_then_name(self):
        reg = MetricsRegistry()
        reg.register_spec(MetricSpec("z_total", "counter", "h", stage="agent"))
        reg.register_spec(MetricSpec("a_total", "counter", "h", stage="ringbuffer"))
        reg.register_spec(MetricSpec("b_total", "counter", "h", stage="agent"))
        assert [m.spec.name for m in reg.metrics()] == [
            "b_total", "z_total", "a_total"
        ]

    def test_flatten_produces_prometheus_keys(self):
        reg = MetricsRegistry()
        c = reg.register_spec(MetricSpec("c_total", "counter", "h", label_names=("node",)))
        c.inc(3, labels=("a",))
        h = reg.register_spec(MetricSpec("h_ns", "histogram", "h", buckets=(10, 100)))
        h.observe(7)
        flat = reg.flatten()
        assert flat['c_total{node="a"}'] == 3.0
        assert flat["h_ns_count"] == 1.0
        assert flat["h_ns_sum"] == 7.0


class TestContract:
    def test_every_spec_validates(self):
        for spec in contract.ALL_METRICS:
            spec.validate()

    def test_names_unique_and_prefixed(self):
        names = [spec.name for spec in contract.ALL_METRICS]
        assert len(names) == len(set(names))
        assert all(name.startswith("vnt_") for name in names)

    def test_every_stage_covered(self):
        stages = {spec.stage for spec in contract.ALL_METRICS}
        assert stages == set(contract.ALL_STAGES)

    def test_whole_contract_registers(self):
        reg = MetricsRegistry()
        for spec in contract.ALL_METRICS:
            reg.register_spec(spec)
        assert reg.names() == sorted(s.name for s in contract.ALL_METRICS)


class TestStatsSampler:
    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            StatsSampler(Engine(), MetricsRegistry(), interval_ns=0)

    def test_periodic_sampling_on_engine_time(self):
        engine = Engine()
        reg = MetricsRegistry()
        sampler = StatsSampler(engine, reg, interval_ns=1000)
        sampler.start()
        engine.run(until=5500)
        sampler.stop()
        engine.run(until=20_000)
        assert len(sampler.rows) == 5  # t=1000..5000, none after stop
        assert [row["t_ns"] for row in sampler.rows] == [1000, 2000, 3000, 4000, 5000]

    def test_rates_computed_between_samples(self):
        engine = Engine()
        reg = MetricsRegistry()
        c = reg.register_spec(MetricSpec("c_total", "counter", "h"))
        sampler = StatsSampler(engine, reg, interval_ns=1_000_000_000)
        sampler.sample_now()  # baseline at t=0
        c.inc(500)
        engine.run(until=1_000_000_000)
        row = sampler.sample_now()
        assert row["rates_per_s"]["c_total"] == pytest.approx(500.0)

    def test_rate_gauge_derived(self):
        engine = Engine()
        reg = MetricsRegistry()
        c = reg.register_spec(MetricSpec("c_total", "counter", "h"))
        g = reg.register_spec(MetricSpec("c_rate", "gauge", "h"))
        sampler = StatsSampler(engine, reg, interval_ns=1_000_000_000)
        sampler.add_rate_gauge(g, "c_total")
        sampler.sample_now()
        assert g.value() == 0.0  # no window yet
        c.inc(250)
        engine.run(until=500_000_000)
        sampler.sample_now()
        assert g.value() == pytest.approx(500.0)  # 250 in 0.5 s

    def test_samples_counter_exported(self):
        engine = Engine()
        reg = MetricsRegistry()
        sampler = StatsSampler(engine, reg, interval_ns=1000)
        sampler.sample_now()
        engine.run(until=1)
        sampler.sample_now()
        assert reg.total(contract.SAMPLER_SAMPLES.name) == 2

    def test_same_instant_resample_replaces_row(self):
        engine = Engine()
        reg = MetricsRegistry()
        c = reg.register_spec(MetricSpec("c_total", "counter", "h"))
        sampler = StatsSampler(engine, reg, interval_ns=1000)
        sampler.sample_now()  # baseline at t=0
        c.inc(100)
        engine.run(until=1_000_000_000)
        sampler.sample_now()
        c.inc(400)  # e.g. an offline collect() after the run ended
        row = sampler.sample_now()  # same t: replaces, rates over t=0..1s
        assert len(sampler.rows) == 2
        assert reg.total(contract.SAMPLER_SAMPLES.name) == 2
        assert row["rates_per_s"]["c_total"] == pytest.approx(500.0)
        assert row["values"]["c_total"] == 500.0


class TestExporters:
    def _registry(self):
        reg = MetricsRegistry()
        c = reg.register_spec(
            MetricSpec("c_total", "counter", "count help", "records", "collector", ("node",))
        )
        c.inc(3, labels=("a",))
        h = reg.register_spec(
            MetricSpec("h_ns", "histogram", "hist help", "ns", "agent", buckets=(10, 100))
        )
        h.observe(7)
        h.observe(5000)
        return reg

    def test_snapshot_dict_shape(self):
        snap = snapshot_dict(self._registry(), t_ns=42)
        assert snap["t_ns"] == 42
        c = snap["metrics"]["c_total"]
        assert c["type"] == "counter"
        assert c["values"] == [{"labels": {"node": "a"}, "value": 3.0}]
        h = snap["metrics"]["h_ns"]
        assert h["buckets"] == [10, 100]
        assert h["values"][0]["bucket_counts"] == [1, 0, 1]
        assert h["values"][0]["count"] == 2

    def test_prometheus_text_format(self):
        text = prometheus_text(self._registry())
        lines = text.splitlines()
        assert "# TYPE c_total counter" in lines
        assert 'c_total{node="a"} 3' in lines
        # Histogram buckets are cumulative and end with +Inf == count.
        assert 'h_ns_bucket{le="10"} 1' in lines
        assert 'h_ns_bucket{le="100"} 1' in lines
        assert 'h_ns_bucket{le="+Inf"} 2' in lines
        assert "h_ns_sum 5007" in lines
        assert "h_ns_count 2" in lines

    def test_prometheus_label_escaping(self):
        reg = MetricsRegistry()
        c = reg.register_spec(MetricSpec("c_total", "counter", "h", label_names=("node",)))
        c.inc(1, labels=('we"ird\\node',))
        text = prometheus_text(reg)
        assert r'c_total{node="we\"ird\\node"} 1' in text

    def test_series_json_roundtrips(self):
        engine = Engine()
        reg = MetricsRegistry()
        reg.register_spec(MetricSpec("c_total", "counter", "h")).inc(2)
        sampler = StatsSampler(engine, reg, interval_ns=1000)
        sampler.sample_now()
        doc = json.loads(series_json(sampler))
        assert doc["interval_ns"] == 1000
        assert doc["rows"][0]["values"]["c_total"] == 2.0
