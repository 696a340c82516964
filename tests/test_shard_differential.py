"""Differential suite: existing scenarios on Engine vs. ShardedEngine.

The compat tier promises byte-identical results for *any* scenario, so
this suite runs the repo's three flagship scenarios -- quickstart, OVS
congestion Case III, and the fault-injection case -- on the plain
engine and on ShardedEngines of several widths, and compares everything
observable: workload counters, collected rows, decompositions, clock
estimates, final virtual time, and event counts.

One normalization: tracepoint IDs are allocated from a process-global
counter, so two runs *in the same process* hand out different IDs even
on identical engines (labels, and everything else, are stable).  Row
comparisons therefore key on labels and zero the ``tracepoint_id``
field -- the same field a cross-process byte-diff (CI's determinism
job) compares directly.
"""

from __future__ import annotations

import pytest

from repro.experiments.fault_case import run_fault_case
from repro.experiments.ovs_case import run_case
from repro.obs.scenario import QUICKSTART_CHAIN, run_quickstart_scenario
from repro.sim import ShardedEngine, engine_factory

QUICKSTART_NS = 400_000_000
OVS_NS = 300_000_000
FAULT_PACKETS = 60


def normalized_tables(db):
    """Label-keyed rows with the process-global tracepoint ID zeroed."""
    return {
        label: [row._replace(tracepoint_id=0) for row in db.table(label)]
        for label in sorted(db.tables())
    }


def quickstart_digest(result):
    tracer = result.tracer
    return {
        "sent": result.client.sent,
        "received": result.client.received,
        "latency": result.client.summary(),
        "rows": tracer.db.rows_inserted,
        "tables": normalized_tables(tracer.db),
        "offsets": tracer.db.clock_offsets(),
        "decomposition": [
            (seg.from_label, seg.to_label, tuple(seg.latencies_ns))
            for seg in tracer.decompose(QUICKSTART_CHAIN)
        ],
        "spans": len(result.forest),
        "now": result.engine.now,
        "events": result.engine.events_executed,
    }


def ovs_digest(result):
    return {
        "sockperf": result.sockperf,
        "decomposition": result.decomposition,
        "goodputs": result.iperf_goodputs_bps,
        "policer_drops": result.policer_drops,
        "queue_drops": result.queue_drops,
        "rows": result.tracer.db.rows_inserted,
        "tables": normalized_tables(result.tracer.db),
    }


def fault_digest(result):
    return {
        "packets_sent": result.packets_sent,
        "rows": result.rows,
        "rows_by_label": result.rows_by_label,
        "decomposition": [
            (seg.from_label, seg.to_label, tuple(seg.latencies_ns))
            for seg in result.decomposition
        ],
        "records_lost": result.records_lost,
        "lost_by_reason": result.records_lost_by_reason,
        "deploy_retries": result.deploy_retries,
        "ship_retries": result.ship_retries,
        "deduped": result.deduped_batches,
    }


class TestQuickstartDifferential:
    @pytest.fixture(scope="class")
    def plain(self):
        return quickstart_digest(
            run_quickstart_scenario(duration_ns=QUICKSTART_NS, shards=0)
        )

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_sharded_byte_identical(self, plain, shards):
        result = run_quickstart_scenario(seed=42, duration_ns=QUICKSTART_NS, shards=shards)
        assert quickstart_digest(result) == plain
        # The accounting behind vnt_shard_*, as literals: pipeline_bench
        # hashes the round count into sim_digest.  The compat tier places
        # nothing, so every event lands on shard 0.
        engine, idle = result.engine, [0] * (shards - 1)
        assert (engine.rounds, engine.last_horizon_ns) == (302, 400_000_000)
        assert engine.events_by_shard == [26_212] + idle
        assert engine.boundary_events_by_shard == [0] + idle

    def test_plain_rerun_identical(self, plain):
        """Control: the scenario itself is deterministic in-process, so
        any differential failure above is the engine's fault."""
        again = quickstart_digest(
            run_quickstart_scenario(duration_ns=QUICKSTART_NS, shards=0)
        )
        assert again == plain


class TestOVSCaseDifferential:
    @pytest.fixture(scope="class")
    def plain(self):
        return ovs_digest(run_case("III", duration_ns=OVS_NS, trace=True))

    @pytest.mark.parametrize("shards", [2, 4])
    def test_sharded_byte_identical(self, plain, shards):
        with engine_factory(lambda: ShardedEngine(shards=shards)):
            sharded = ovs_digest(run_case("III", duration_ns=OVS_NS, trace=True))
        assert sharded == plain


class TestFaultCaseDifferential:
    @pytest.fixture(scope="class")
    def plain(self):
        return fault_digest(run_fault_case(packets=FAULT_PACKETS))

    @pytest.mark.parametrize("shards", [2, 4])
    def test_sharded_byte_identical(self, plain, shards):
        with engine_factory(lambda: ShardedEngine(shards=shards)):
            sharded = fault_digest(run_fault_case(packets=FAULT_PACKETS))
        assert sharded == plain

    def test_faulty_leg_byte_identical(self):
        """The lossy leg exercises retries, crashes, and dedup -- the
        scheduling-heaviest paths in the repo."""
        from repro.experiments.fault_case import default_fault_plan

        plan = default_fault_plan(seed=11)
        plain = fault_digest(run_fault_case(plan=plan, packets=FAULT_PACKETS))
        with engine_factory(lambda: ShardedEngine(shards=3)):
            sharded = fault_digest(run_fault_case(plan=plan, packets=FAULT_PACKETS))
        assert sharded == plain
