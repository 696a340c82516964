#!/usr/bin/env python3
"""Quickstart: trace a UDP flow end to end with vNetTracer.

Builds the paper's Fig. 7(a) style topology -- two physical hosts, a KVM
VM on each, Open vSwitch bridging each VM to the NIC -- then:

1. installs vNetTracer agents on all four kernels (which also enables
   the per-packet trace-ID kernel patch);
2. synchronizes the two hosts' clocks with Cristian's algorithm
   (host2 boots with a +1.5 ms offset and 20 ppm drift);
3. deploys tracing scripts, compiled to eBPF bytecode, at four points
   along the path of a Sockperf flow;
4. runs the workload and prints the end-to-end latency decomposition,
   followed by the pipeline's own health report (docs/OBSERVABILITY.md).

Run:  python examples/quickstart.py [--shards N]

``--shards N`` runs the identical scenario on a compat-tier
ShardedEngine with N shards (docs/SHARDING.md); the output is
byte-identical to the default single-heap engine.  Both are one row of
the pin table, ``tests/golden/pins.json`` (``--shards 4`` as an alias;
``python -m tests.pins`` checks it).
"""

import argparse

from repro.core import FilterRule, TracepointSpec, TracingSpec, VNetTracer
from repro.experiments.topologies import build_two_host_kvm
from repro.net.packet import IPPROTO_UDP
from repro.sim import ShardedEngine, engine_factory
from repro.workloads.sockperf import SockperfClient, SockperfServer


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--shards", type=int, default=0, metavar="N",
                        help="run on a ShardedEngine with N shards (default: plain engine)")
    args = parser.parse_args()

    if args.shards:
        with engine_factory(lambda: ShardedEngine(shards=args.shards)):
            scene = build_two_host_kvm(seed=42)
    else:
        scene = build_two_host_kvm(seed=42)
    engine = scene.engine

    # -- the application under observation --------------------------------
    SockperfServer(scene.vm2.node, scene.vm2_ip)
    client = SockperfClient(scene.vm1.node, scene.vm1_ip, scene.vm2_ip, mps=2000)

    # -- vNetTracer --------------------------------------------------------
    tracer = VNetTracer(engine)
    for kernel in (scene.host1.node, scene.host2.node, scene.vm1.node, scene.vm2.node):
        tracer.add_agent(kernel)
    tracer.attach_stats_sampler()  # self-observability (docs/OBSERVABILITY.md)

    sync = tracer.synchronize_clocks(
        scene.host1.node, scene.host1_ip, "dev:eth0",
        scene.host2.node, scene.host2_ip, "dev:eth0",
    )

    chain = ["vm1:udp_send", "host1:wire-out", "host2:wire-in", "vm2:app-copy"]
    spec = TracingSpec(
        rule=FilterRule(dst_port=11111, protocol=IPPROTO_UDP),
        tracepoints=[
            TracepointSpec(node=scene.vm1.node.name, hook="kprobe:udp_send_skb",
                           label=chain[0]),
            TracepointSpec(node=scene.host1.node.name, hook="dev:eth0", label=chain[1]),
            TracepointSpec(node=scene.host2.node.name, hook="dev:eth0", label=chain[2]),
            TracepointSpec(node=scene.vm2.node.name,
                           hook="kprobe:skb_copy_datagram_iovec", label=chain[3]),
        ],
    )

    def after_sync(estimate) -> None:
        # The guest shares host2's clocksource; reuse the estimate.
        tracer.db.set_clock_skew(scene.vm2.node.name, estimate.skew_ns)
        print(f"clock skew host1-host2 estimated: {estimate.skew_ns / 1e6:+.3f} ms "
              f"(one-way {estimate.one_way_ns / 1e3:.1f} us over {estimate.samples} samples)")
        tracer.deploy(spec)
        client.start(500_000_000, start_delay_ns=5_000_000)

    previous = sync.on_done
    sync.on_done = lambda est: (previous(est), after_sync(est))

    engine.run(until=4_000_000_000)
    tracer.collect()

    # -- results ------------------------------------------------------------
    print(f"\nsockperf: {client.received}/{client.sent} replies, "
          f"avg latency {client.summary().avg_ns / 1e3:.1f} us (half RTT)")
    print(f"trace records collected: {tracer.db.rows_inserted}")
    print("\nend-to-end decomposition (request direction):")
    for segment in tracer.decompose(chain):
        summary = segment.summary()
        print(f"  {segment.from_label:18s} -> {segment.to_label:18s}"
              f"  avg {summary.avg_ns / 1e3:8.2f} us   p99 {summary.p99_ns / 1e3:8.2f} us")
    end_to_end = tracer.latencies(chain[0], chain[-1])
    print(f"\n  end-to-end one-way: avg "
          f"{sum(end_to_end) / len(end_to_end) / 1e3:.2f} us over {len(end_to_end)} packets")

    print()
    print(tracer.pipeline_health())


if __name__ == "__main__":
    main()
