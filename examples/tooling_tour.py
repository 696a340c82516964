#!/usr/bin/env python3
"""A tour of the observability tooling around vNetTracer.

Beyond the headline tracing pipeline, the repo carries the operator
tools you would reach for alongside it:

* in-kernel aggregation: per-CPU counters and log2 packet-size
  histograms computed entirely inside the eBPF programs;
* sampling: trace only ~1/2^n of a hot flow;
* program introspection: a `bpftool prog`-style dump of what the
  compiler actually emitted;
* packet capture: a tcpdump analog writing real .pcap files;
* runtime reconfiguration: undeploying detaches every script.

Run:  python examples/tooling_tour.py
"""

import io

from repro.core import ActionSpec, FilterRule, TracepointSpec, TracingSpec, VNetTracer
from repro.core.compiler import histogram_bucket
from repro.ebpf.inspect import dump_program
from repro.experiments.topologies import build_two_host_kvm
from repro.net.packet import IPPROTO_UDP
from repro.net.pcap import PacketCapture, PcapReader
from repro.workloads.sockperf import SockperfClient, SockperfServer


def main() -> None:
    scene = build_two_host_kvm(seed=99)
    engine = scene.engine
    SockperfServer(scene.vm2.node, scene.vm2_ip)
    client = SockperfClient(scene.vm1.node, scene.vm1_ip, scene.vm2_ip,
                            mps=5000, msg_bytes=200)

    # -- tracing with in-kernel aggregation + sampling ----------------------
    tracer = VNetTracer(engine)
    tracer.add_agent(scene.vm1.node)
    spec = TracingSpec(
        rule=FilterRule(dst_port=11111, protocol=IPPROTO_UDP),
        tracepoints=[
            TracepointSpec(node=scene.vm1.node.name,
                           hook="kprobe:udp_send_skb", label="send"),
        ],
        action=ActionSpec(record=True, count=True, size_histogram=True,
                          sample_shift=3),  # record ~1/8th
    )
    tracer.deploy(spec)

    # -- packet capture on the server's OVS-facing NIC ----------------------
    capture = PacketCapture(scene.host2.node, rule=spec.rule, max_packets=100)
    scene.host2.node.hooks.attach("dev:eth0", capture)

    client.start(400_000_000, start_delay_ns=5_000_000)
    engine.run(until=600_000_000)
    tracer.collect()

    sent = client.sent
    recorded = tracer.db.count("send")
    counted = tracer.counter(scene.vm1.node.name, "send")
    print(f"sent {sent} requests")
    print(f"sampled actions ran for {counted} of them "
          f"(sample_shift=3 gates counters and records alike)")
    print(f"perf records streamed: {recorded} ({100 * recorded / sent:.1f}% ~ 1/8)")

    histogram = tracer.size_histogram(scene.vm1.node.name, "send")
    print("\nin-kernel log2 packet-size histogram (bucket: count):")
    for bucket, count in enumerate(histogram):
        if count:
            low = 0 if bucket == 0 else 1 << (bucket - 1)
            high = (1 << bucket) - 1
            print(f"  [{low:5d}..{high:5d}] {'#' * min(40, count // 10)} {count}")
    expected = histogram_bucket(200 + 42 + 4)  # payload + headers + trace id
    print(f"  (all packets fall in bucket {expected}, as expected)")

    # -- bpftool-style dump ---------------------------------------------------
    agent = tracer.agents[scene.vm1.node.name]
    program = agent.scripts["send"].attachment.program
    print("\ncompiled tracing script:")
    print("\n".join("  " + line for line in dump_program(program).splitlines()[:8]))
    print("  ... (full listing via repro.ebpf.inspect.dump_program)")

    # -- pcap ------------------------------------------------------------------
    buffer = io.BytesIO()
    written = capture.save(buffer)
    buffer.seek(0)
    frames = list(PcapReader(buffer))
    print(f"\npcap capture at host2:eth0: {written} frames, "
          f"{sum(len(w) for _t, w in frames)} bytes")
    print("first frame parses back to:", capture.packets()[0])

    # -- runtime reconfiguration ------------------------------------------------
    # undeploy() detaches every script and flushes and stops each ring;
    # a second deploy() onto an installed agent tears it down the same way.
    hook = "kprobe:udp_send_skb"
    attached = scene.vm1.node.hooks.has_attachments(hook)
    tracer.undeploy()
    print(f"\nundeploy: {hook} attached {attached} -> "
          f"{scene.vm1.node.hooks.has_attachments(hook)}")


if __name__ == "__main__":
    main()
