"""The macro_fleet scenario: cross-mode identity and physical sanity.

The fleet workload is designed so single-engine, sharded in-process,
and worker-mode runs are *byte-identical* (tie-free timestamp residues,
permutation probe maps, per-node record buffers); these tests assert
that identity plus the physics the records encode: exact Cristian skew
recovery and wire-latency-exact aligned cross-rack timestamps.
"""

from __future__ import annotations

import pytest

from repro.experiments.macro_fleet import (
    FLEET_LABELS,
    FleetConfig,
    TP_PROBE_RX,
    TP_PROBE_TX,
    TP_REPLY_RX,
    fleet_rack_skews,
    run_macro_fleet,
    shard_of_rack,
)
from repro.streaming import offline_reference_json

SMALL = FleetConfig(nodes=80, racks=8, ticks=8)


@pytest.fixture(scope="module")
def single_run():
    return run_macro_fleet(SMALL, shards=1)


class TestCrossModeIdentity:
    @pytest.mark.parametrize("shards", [2, 4, 8])
    def test_sharded_matches_single(self, single_run, shards):
        sharded = run_macro_fleet(SMALL, shards=shards)
        assert sharded.digest16 == single_run.digest16
        for key in ("rows_inserted", "rtt_avg_ns", "boundary_messages",
                    "skew_racks_recovered"):
            assert sharded.metrics[key] == single_run.metrics[key]

    def test_worker_mode_matches_single(self, single_run):
        workers = run_macro_fleet(SMALL, shards=4, workers=True,
                                  mp_start_method="fork")
        assert workers.digest16 == single_run.digest16

    def test_coordinator_with_one_shard_matches_single(self, single_run):
        one_shard = run_macro_fleet(SMALL, shards=1, workers=True)
        assert one_shard.digest16 == single_run.digest16
        assert one_shard.metrics["workers"] == 0

    def test_merged_db_identical_not_just_digest(self, single_run):
        sharded = run_macro_fleet(SMALL, shards=4)
        for label in FLEET_LABELS.values():
            assert sharded.db.table(label) == single_run.db.table(label)
        assert sharded.db.clock_offsets() == single_run.db.clock_offsets()


class TestPhysics:
    def test_sync_recovers_exact_rack_skews(self, single_run):
        expected = fleet_rack_skews(SMALL)
        assert set(single_run.skews) == set(range(1, SMALL.racks))
        for rack, estimate in single_run.skews.items():
            # Symmetric wire + pure offsets: Cristian is exact here.
            assert estimate == expected[rack]

    def test_aligned_cross_rack_latency_is_wire_exact(self, single_run):
        """After de-skewing, rx - tx across racks is exactly wire_ns --
        the property the whole clock-sync pipeline exists to deliver."""
        db = single_run.db
        tx_rows = {r.trace_id: r for r in db.table(FLEET_LABELS[TP_PROBE_TX])}
        rx_rows = db.table(FLEET_LABELS[TP_PROBE_RX])
        assert rx_rows
        for rx in rx_rows:
            tx = tx_rows[rx.trace_id]
            assert rx.timestamp_ns - tx.timestamp_ns == SMALL.wire_ns
        reply_rows = db.table(FLEET_LABELS[TP_REPLY_RX])
        assert reply_rows
        for reply in reply_rows:
            tx = tx_rows[reply.trace_id]
            assert reply.timestamp_ns - tx.timestamp_ns == 2 * SMALL.wire_ns

    def test_raw_timestamps_are_skewed(self, single_run):
        """The raw column keeps the node-local clock; rack-0 nodes (skew
        zero) aside, raw and aligned must differ by the rack skew."""
        skews = fleet_rack_skews(SMALL)
        per_rack = SMALL.per_rack
        found_nonzero = False
        for row in single_run.db.table(FLEET_LABELS[TP_PROBE_TX]):
            node = int(row.node.split("-")[1])
            skew = skews[node // per_rack]
            assert row.raw_timestamp_ns - row.timestamp_ns == skew
            found_nonzero = found_nonzero or skew != 0
        assert found_nonzero

    def test_rtt_is_twice_wire(self, single_run):
        assert single_run.metrics["rtt_avg_ns"] == 2 * SMALL.wire_ns


class TestStreamingMerge:
    """The merge's aggregator reads the merge database, so its summary
    is the offline answer over that database and it saw every row."""

    @pytest.mark.parametrize("shards", [1, 4])
    def test_streaming_equals_offline_over_the_merged_db(self, shards):
        result = run_macro_fleet(FleetConfig(ticks=6, seed=3), shards=shards)
        streaming, db = result.streaming, result.db
        assert db.rows_inserted > 0
        assert streaming.summary_json() == offline_reference_json(db, streaming.config)
        assert streaming.records == db.rows_inserted


class TestConfig:
    def test_rack_placement_is_contiguous_and_balanced(self):
        placement = [shard_of_rack(rack, 40, 16) for rack in range(40)]
        assert placement == sorted(placement)  # contiguous blocks
        counts = [placement.count(s) for s in range(16)]
        assert max(counts) - min(counts) <= 1
        assert sum(counts) == 40

    def test_uneven_nodes_rejected(self):
        with pytest.raises(Exception, match="divide evenly"):
            run_macro_fleet(FleetConfig(nodes=10, racks=3, ticks=2), shards=1)

    def test_wire_below_lookahead_rejected(self):
        bad = FleetConfig(nodes=10, racks=2, ticks=2,
                          wire_ns=10, lookahead_ns=1_000_000)
        with pytest.raises(Exception, match="lookahead"):
            run_macro_fleet(bad, shards=1)


class TestBenchLegsAgree:
    def test_all_three_bench_modules_report_identical_metrics(self):
        """The three registered bench scenarios run the same workload;
        every deterministic metric except the mode fields must agree."""
        from repro.experiments import get_scenario

        runs = {
            name: get_scenario(name).pinned_fn()()
            for name in ("macro_fleet", "macro_fleet_single", "macro_fleet_shards4")
        }
        assert len(runs) == 3
        mode_fields = {"shards", "workers", "rounds", "boundary_messages"}
        reference = {
            k: v for k, v in runs["macro_fleet"].items() if k not in mode_fields
        }
        for name, metrics in runs.items():
            assert {
                k: v for k, v in metrics.items() if k not in mode_fields
            } == reference, name
