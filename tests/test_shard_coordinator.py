"""Fleet-tier coordinator: boundary contract, round protocol, workers.

Covers the satellite requirements for the multiprocessing path: the
boundary batch pickles round-trip, a crashing worker surfaces as a
clean :class:`ShardWorkerError` (never a hang), and ``shards=1`` is
exactly the in-process coordinator -- no worker pool.
"""

from __future__ import annotations

import functools
import multiprocessing
import pickle

import pytest

from repro.experiments.macro_fleet import FleetConfig, build_fleet_shard, run_macro_fleet
from repro.sim.coordinator import (
    BoundaryBatch,
    BoundaryError,
    BoundaryMessage,
    BoundaryOutbox,
    ShardCoordinator,
    ShardWorkerError,
)
from repro.sim.engine import Engine, SimulationError

SMALL = FleetConfig(nodes=60, racks=6, ticks=6)


class TestShardEngine:
    def test_runs_in_time_order_and_advances_to_horizon(self):
        engine = Engine()
        log = []
        engine.schedule(30, log.append, "c")
        engine.schedule(10, log.append, "a")
        engine.schedule_at(20, log.append, "b")
        executed = engine.run(until=25)
        assert log == ["a", "b"]
        assert executed == 2
        assert engine.now == 25  # the round barrier
        assert engine.pending() == 1
        assert engine.next_time() == 30

    def test_schedule_validation(self):
        engine = Engine()
        with pytest.raises(SimulationError):
            engine.schedule(-1, lambda: None)
        engine.run(until=100)
        with pytest.raises(SimulationError):
            engine.schedule_at(50, lambda: None)

    def test_counts_into_global_counter(self):
        before = Engine.global_events_executed()
        engine = Engine()
        engine.schedule(1, lambda: None)
        engine.run(until=10)
        assert Engine.global_events_executed() == before + 1


class TestBoundaryContract:
    def test_lookahead_violation_raises(self):
        outbox = BoundaryOutbox(shard=0, lookahead_ns=1000)
        with pytest.raises(BoundaryError):
            outbox.send(deliver_ns=1500, dst_shard=1, dst_node=2, send_ns=600)

    def test_send_stamps_monotone_seq(self):
        outbox = BoundaryOutbox(shard=3, lookahead_ns=100)
        first = outbox.send(deliver_ns=200, dst_shard=0, dst_node=1, send_ns=0)
        second = outbox.send(deliver_ns=300, dst_shard=1, dst_node=2, send_ns=0)
        assert (first.seq, second.seq) == (0, 1)
        assert first.src_shard == 3
        assert outbox.drain() == [first, second]
        assert outbox.drain() == []
        assert outbox.sent_total == 2

    def test_boundary_batch_pickle_round_trip(self):
        messages = tuple(
            BoundaryMessage(
                deliver_ns=1_000_000 + i,
                src_shard=1,
                src_node=7,
                dst_shard=2,
                dst_node=9,
                kind=i % 4,
                trace_id=40 + i,
                payload=i * 1000,
                send_ns=i,
                seq=i,
            )
            for i in range(5)
        )
        batch = BoundaryBatch(round_index=3, src_shard=1, messages=messages)
        clone = pickle.loads(pickle.dumps(batch))
        assert clone == batch
        assert isinstance(clone, BoundaryBatch)
        assert all(isinstance(m, BoundaryMessage) for m in clone.messages)

    def test_build_callable_pickles(self):
        build = functools.partial(build_fleet_shard, SMALL)
        clone = pickle.loads(pickle.dumps(build))
        outbox = BoundaryOutbox(shard=0, lookahead_ns=SMALL.lookahead_ns)
        program = clone(0, 2, outbox)
        assert program.engine.next_time() is not None


class TestCoordinator:
    def test_validation(self):
        build = functools.partial(build_fleet_shard, SMALL)
        with pytest.raises(SimulationError):
            ShardCoordinator(0, build)
        with pytest.raises(SimulationError):
            ShardCoordinator(2, build, lookahead_ns=0)

    @pytest.mark.parametrize("workers", [False, True], ids=["in-process", "workers"])
    def test_non_finite_until_is_a_simulation_error(self, workers):
        """Refused before any shard is built or any worker started."""
        built = []

        def build(*args):
            built.append(args)
            return build_fleet_shard(SMALL, *args)

        coordinator = ShardCoordinator(2, build, workers=workers)
        for until in (float("nan"), float("inf")):
            with pytest.raises(SimulationError, match="invalid run bound"):
                coordinator.run(until)
        assert built == [] and coordinator.rounds == 0

    def test_attach_metrics_registers_shard_stage(self):
        """Same registration as the compat tier's, over the coordinator's
        own counters."""
        from repro.obs import contract
        from repro.obs.registry import MetricsRegistry

        coordinator = ShardCoordinator(2, functools.partial(build_fleet_shard, SMALL))
        registry = MetricsRegistry()
        coordinator.attach_metrics(registry)
        run = coordinator.run(SMALL.end_ns)
        flat = registry.flatten()
        assert flat[contract.SHARD_ROUNDS.name] == run.rounds > 0
        assert flat[contract.SHARD_HORIZON.name] == coordinator.last_horizon_ns
        assert flat[contract.SHARD_WORKERS.name] == 0.0
        for metric, counts, total in (
            (contract.SHARD_EVENTS, coordinator.events_by_shard, run.events_executed),
            (contract.SHARD_BOUNDARY, coordinator.boundary_events_by_shard,
             run.boundary_messages),
        ):
            assert sum(counts) == total > 0
            for shard, count in enumerate(counts):
                assert flat[f'{metric.name}{{shard="{shard}"}}'] == count

    def test_single_shard_is_in_process_even_with_workers(self):
        """--shards 1 is exactly the in-process coordinator: the worker
        flag is ignored and no process is ever spawned."""
        spawned = []
        original = multiprocessing.get_context

        def tracking_get_context(method=None):
            spawned.append(method)
            return original(method)

        coordinator = ShardCoordinator(
            1, functools.partial(build_fleet_shard, SMALL), workers=True
        )
        assert coordinator.workers is False
        multiprocessing.get_context = tracking_get_context
        try:
            run = coordinator.run(SMALL.end_ns)
        finally:
            multiprocessing.get_context = original
        assert spawned == []  # never touched multiprocessing
        assert run.workers == 0
        assert run.events_executed > 0

    def test_worker_mode_matches_in_process(self):
        in_process = run_macro_fleet(SMALL, shards=3)
        on_workers = run_macro_fleet(
            SMALL, shards=3, workers=True, mp_start_method="fork"
        )
        assert on_workers.digest16 == in_process.digest16
        assert on_workers.metrics["workers"] == 3
        assert in_process.metrics["workers"] == 0
        assert (
            on_workers.metrics["boundary_messages"]
            == in_process.metrics["boundary_messages"]
        )
        assert on_workers.metrics["rounds"] == in_process.metrics["rounds"]

    @pytest.mark.slow
    def test_worker_mode_spawn_matches_in_process(self):
        """The default (spawn) start method: the build callable and all
        boundary traffic must survive a fresh interpreter."""
        in_process = run_macro_fleet(SMALL, shards=2)
        spawned = run_macro_fleet(SMALL, shards=2, workers=True)
        assert spawned.digest16 == in_process.digest16

    def test_worker_crash_surfaces_as_clean_error(self):
        config = SMALL._replace(crash_in_shard=1, crash_at_ns=2_000_000)
        with pytest.raises(ShardWorkerError) as excinfo:
            run_macro_fleet(config, shards=3, workers=True, mp_start_method="fork")
        # The failing shard and the original traceback are in the message.
        assert "shard 1" in str(excinfo.value)
        assert "injected fleet crash" in str(excinfo.value)

    def test_crash_in_process_propagates(self):
        config = SMALL._replace(crash_in_shard=0, crash_at_ns=2_000_000)
        with pytest.raises(RuntimeError, match="injected fleet crash"):
            run_macro_fleet(config, shards=3)

    def test_dead_worker_raises_not_hangs(self):
        """A worker that dies without a protocol reply must raise."""
        coordinator = ShardCoordinator(
            2,
            functools.partial(build_fleet_shard, SMALL),
            worker_timeout_s=5.0,
        )

        class DeadConn:
            def poll(self, timeout):
                return True

            def recv(self):
                raise EOFError

        with pytest.raises(ShardWorkerError, match="died without a reply"):
            coordinator._expect(DeadConn(), shard=0)

    def test_hung_worker_times_out(self):
        coordinator = ShardCoordinator(
            2,
            functools.partial(build_fleet_shard, SMALL),
            worker_timeout_s=0.01,
        )

        class HungConn:
            def poll(self, timeout):
                return False

        with pytest.raises(ShardWorkerError, match="hung"):
            coordinator._expect(HungConn(), shard=1)
