"""Tracing configuration objects and validation."""

import pytest

from repro.core.config import (
    ActionSpec,
    ConfigError,
    FilterRule,
    GlobalConfig,
    TracepointSpec,
    TracingSpec,
)


class TestFilterRule:
    def test_wildcard_rule(self):
        assert FilterRule().matches_everything()

    def test_specific_rule_not_wildcard(self):
        assert not FilterRule(dst_port=80).matches_everything()

    @pytest.mark.parametrize("port", [0, -1, 65536])
    def test_bad_ports_rejected(self, port):
        with pytest.raises(ConfigError):
            FilterRule(dst_port=port)

    def test_bad_protocol_rejected(self):
        with pytest.raises(ConfigError):
            FilterRule(protocol=99)


class TestTracepointSpec:
    def test_label_defaults(self):
        spec = TracepointSpec(node="n1", hook="dev:eth0")
        assert spec.label == "n1:dev:eth0"

    def test_ids_unique(self):
        a = TracepointSpec(node="n", hook="dev:a")
        b = TracepointSpec(node="n", hook="dev:b")
        assert a.tracepoint_id != b.tracepoint_id

    def test_bad_hook_rejected(self):
        with pytest.raises(ConfigError):
            TracepointSpec(node="n", hook="nocolon")

    def test_bad_id_mode_rejected(self):
        with pytest.raises(ConfigError):
            TracepointSpec(node="n", hook="dev:a", id_mode="bogus")


class TestActionAndGlobal:
    def test_action_must_do_something(self):
        with pytest.raises(ConfigError):
            ActionSpec(record=False, count=False)

    def test_ring_bounds_follow_paper_footnote(self):
        GlobalConfig(ring_buffer_bytes=32)
        GlobalConfig(ring_buffer_bytes=128 * 1024 - 16)
        with pytest.raises(ConfigError):
            GlobalConfig(ring_buffer_bytes=16)
        with pytest.raises(ConfigError):
            GlobalConfig(ring_buffer_bytes=128 * 1024)


class TestTracingSpec:
    def _spec(self):
        return TracingSpec(
            rule=FilterRule(dst_port=80),
            tracepoints=[
                TracepointSpec(node="n1", hook="dev:a", label="A"),
                TracepointSpec(node="n2", hook="dev:b", label="B"),
                TracepointSpec(node="n1", hook="kprobe:udp_rcv", label="C"),
            ],
        )

    def test_needs_tracepoints(self):
        with pytest.raises(ConfigError):
            TracingSpec(rule=FilterRule(), tracepoints=[])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ConfigError):
            TracingSpec(
                rule=FilterRule(),
                tracepoints=[
                    TracepointSpec(node="n", hook="dev:a", label="X"),
                    TracepointSpec(node="n", hook="dev:b", label="X"),
                ],
            )

    def test_nodes_and_per_node_grouping(self):
        spec = self._spec()
        assert spec.nodes() == ["n1", "n2"]
        assert [tp.label for tp in spec.tracepoints_for("n1")] == ["A", "C"]
