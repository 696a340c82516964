"""End-to-end integration: vNetTracer measurements vs ground truth on
the full two-host KVM topology."""

import pytest

from repro.core import FilterRule, TracepointSpec, TracingSpec, VNetTracer
from repro.experiments.topologies import build_two_host_kvm
from repro.net.packet import IPPROTO_UDP
from repro.workloads.sockperf import SockperfClient, SockperfServer


@pytest.fixture(scope="module")
def traced_run():
    """One traced sockperf run shared by the assertions below."""
    scene = build_two_host_kvm(seed=3)
    engine = scene.engine
    SockperfServer(scene.vm2.node, scene.vm2_ip)
    client = SockperfClient(scene.vm1.node, scene.vm1_ip, scene.vm2_ip, mps=2000)

    tracer = VNetTracer(engine)
    for kernel in (scene.host1.node, scene.host2.node, scene.vm1.node, scene.vm2.node):
        tracer.add_agent(kernel)
    # Align host2's (and its guest's) clock with host1 via Cristian.
    sync = tracer.synchronize_clocks(
        scene.host1.node, scene.host1_ip, "dev:eth0",
        scene.host2.node, scene.host2_ip, "dev:eth0",
    )

    chain = ["vm1:send", "h1:nic", "h2:nic", "vm2:recv"]
    spec = TracingSpec(
        rule=FilterRule(dst_port=11111, protocol=IPPROTO_UDP),
        tracepoints=[
            TracepointSpec(node=scene.vm1.node.name, hook="kprobe:udp_send_skb",
                           label="vm1:send"),
            TracepointSpec(node=scene.host1.node.name, hook="dev:eth0", label="h1:nic"),
            TracepointSpec(node=scene.host2.node.name, hook="dev:eth0", label="h2:nic"),
            TracepointSpec(node=scene.vm2.node.name,
                           hook="kprobe:skb_copy_datagram_iovec", label="vm2:recv"),
        ],
    )

    ground_truth = []
    original = client.socket.on_receive

    def start_traced_phase(estimate) -> None:
        # The guest on host2 books time on host2's clock domain as well.
        tracer.db.set_clock_skew(scene.vm2.node.name, estimate.skew_ns)
        tracer.deploy(spec)
        client.start(100_000_000, start_delay_ns=5_000_000)

    previous = sync.on_done

    def on_done(estimate):
        if previous:
            previous(estimate)
        start_traced_phase(estimate)

    sync.on_done = on_done
    engine.run(until=3_000_000_000)
    tracer.collect()
    return scene, tracer, client, chain


class TestEndToEnd:
    def test_all_points_recorded(self, traced_run):
        scene, tracer, client, chain = traced_run
        assert client.received > 100
        for label in chain:
            assert tracer.db.count(label) >= client.received

    def test_end_to_end_latency_plausible(self, traced_run):
        scene, tracer, client, chain = traced_run
        latencies = tracer.latencies(chain[0], chain[-1])
        assert len(latencies) > 100
        # One-way request latency: all positive, tens of microseconds.
        assert all(0 < lat < 500_000 for lat in latencies)

    def test_decomposition_sums_to_end_to_end(self, traced_run):
        scene, tracer, client, chain = traced_run
        segments = tracer.decompose(chain)
        total = tracer.latencies(chain[0], chain[-1])
        reconstructed = [
            sum(parts) for parts in zip(*(s.latencies_ns for s in segments))
        ]
        assert sorted(reconstructed) == sorted(total)[: len(reconstructed)]

    def test_wire_segment_dominated_by_propagation(self, traced_run):
        scene, tracer, client, chain = traced_run
        segments = tracer.decompose(chain)
        wire = segments[1]  # h1:nic -> h2:nic
        summary = wire.summary()
        # 20us propagation + serialization + switch datapath.
        assert 20_000 < summary.avg_ns < 60_000

    def test_cross_node_latency_needs_skew_correction(self, traced_run):
        scene, tracer, client, chain = traced_run
        # Without alignment the 1.5ms configured offset would swamp the
        # ~30us wire latency; with Cristian it does not.
        estimate = tracer.clock_estimates[scene.host2.node.name]
        assert abs(estimate.skew_ns) > 1_000_000  # the skew was real
        wire = tracer.latencies("h1:nic", "h2:nic")
        assert all(0 < lat < 100_000 for lat in wire)

    def test_no_packet_loss_reported(self, traced_run):
        scene, tracer, client, chain = traced_run
        loss = tracer.loss(chain[0], chain[-1])
        assert loss.lost <= 1  # at most a trailing in-flight packet

    def test_throughput_at_point_consistent(self, traced_run):
        scene, tracer, client, chain = traced_run
        result = tracer.throughput(chain[0])
        # 2000 msg/s of 56B payloads (+headers +id), order microseconds:
        assert result.packets >= client.received
        assert result.bits_per_second > 100_000


class TestShadowedScenes:
    """Every program a scene deploys, replayed on the interpreter: the
    compiled tier's typed accesses, segment reads and bound perf call
    sites must leave the same registers, memory, maps and perf output
    -- and so the same database -- as the oracle."""

    @staticmethod
    def _shadow_everything(patch):
        """``BPFProgram(shadow=...)`` defaults to on while ``patch``
        lasts; returns the list the programs built that way land in."""
        from repro.ebpf.vm import BPFProgram

        built = []
        original = BPFProgram.__init__

        def shadowed_init(self, *args, **kwargs):
            kwargs.setdefault("shadow", True)
            original(self, *args, **kwargs)
            built.append(self)

        patch.setattr(BPFProgram, "__init__", shadowed_init)
        return built

    @staticmethod
    def _rows(db):
        # Tracepoint ids come from a process-global allocator.
        return {
            label: [row._replace(tracepoint_id=0) for row in db.table(label)]
            for label in sorted(db.tables())
        }

    @staticmethod
    def _quickstart():
        from repro.obs.scenario import run_quickstart_scenario

        return run_quickstart_scenario(seed=11, duration_ns=150_000_000, shards=0).tracer.db

    @staticmethod
    def _overlay_tcp():
        """TCP through VXLAN with trace-ID options, traced on every
        device of the receiving VM (``pipeline_bench``'s
        ``tcp_bulk_overlay``, small)."""
        from repro.core import GlobalConfig
        from repro.experiments.topologies import build_overlay_case
        from repro.net.packet import IPPROTO_TCP
        from repro.workloads.netperf import NetperfClient, NetperfServer

        scene = build_overlay_case(seed=11)
        receiver = scene.vm2.node
        NetperfServer(scene.container2.node, scene.c2_ip, port=12865, cpu_index=1)
        client = NetperfClient(
            scene.container1.node, scene.c1_ip, scene.c2_ip, server_port=12865,
            mode="TCP_STREAM", gso_bytes=65160, cpu_index=1,
        )
        tracer = VNetTracer(scene.engine)
        tracer.add_agent(scene.vm1.node)
        tracer.add_agent(receiver)
        devices = [name for name in receiver.devices if name != "lo"]
        # veth names come from a process-global counter: label by kind.
        labels = ["veth" if name.startswith("veth") else name for name in devices]
        tracer.deploy(TracingSpec(
            rule=FilterRule(dst_ip=scene.c2_ip, dst_port=12865, protocol=IPPROTO_TCP),
            tracepoints=[
                TracepointSpec(node=receiver.name, hook=f"dev:{name}", label=label,
                               strip_vxlan=True, id_mode="tcp-option", tracepoint_id=201 + index)
                for index, (name, label) in enumerate(zip(devices, labels))
            ],
            global_config=GlobalConfig(flush_interval_ns=2_000_000),
        ))
        scene.engine.run(until=2_000_000)
        client.start(8_000_000)
        scene.engine.run(until=30_000_000)
        tracer.collect()
        return tracer.db

    @pytest.mark.parametrize("scene", ["_quickstart", "_overlay_tcp"])
    def test_shadowed_scene_stores_the_same_rows(self, scene):
        run = getattr(self, scene)
        plain = self._rows(run())
        with pytest.MonkeyPatch.context() as patch:
            programs = self._shadow_everything(patch)
            shadowed = self._rows(run())  # a ShadowMismatch would raise here
        assert programs and all(program.shadow for program in programs)
        assert sum(program.run_count for program in programs) > 100
        assert sum(len(rows) for rows in plain.values()) > 50
        assert shadowed == plain
