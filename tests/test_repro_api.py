"""Public API surface: the imports a downstream user relies on."""

import repro
import repro.net as net


class TestTopLevelAPI:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_headline_exports(self):
        for name in ("VNetTracer", "TracingSpec", "FilterRule",
                     "TracepointSpec", "ActionSpec", "GlobalConfig", "Engine"):
            assert name in repro.__all__
            assert getattr(repro, name) is not None

    def test_net_exports(self):
        for name in ("Packet", "IPv4Address", "MACAddress",
                     "PacketCapture", "PcapReader", "PcapWriter"):
            assert name in net.__all__

    def test_ebpf_exports(self):
        import repro.ebpf as ebpf

        for name in ("Assembler", "BPFProgram", "verify", "HookRegistry",
                     "HashMap", "PerfEventArray"):
            assert name in ebpf.__all__

    def test_workloads_exports(self):
        import repro.workloads as workloads

        for name in ("SockperfClient", "NetperfServer", "MemcachedServer",
                     "IperfUDPClient"):
            assert name in workloads.__all__

    def test_all_matches_readme_public_api(self):
        """The README's 'Public API' section and ``repro.__all__`` are
        the same list -- neither can drift without the other."""
        import re
        from pathlib import Path

        readme = Path(__file__).resolve().parents[1] / "README.md"
        section = readme.read_text().split("## Public API", 1)[1]
        section = section.split("\n## ", 1)[0]
        documented = re.findall(
            r"^- `([A-Za-z_][A-Za-z0-9_]*)`", section, flags=re.M)
        assert documented, "README Public API section lists no names"
        assert sorted(documented) == sorted(repro.__all__)

    def test_fault_and_report_exports(self):
        for name in ("FaultPlan", "ChannelFaults",
                     "CrashEvent", "RingPressureEvent", "DeployReport",
                     "CollectReport"):
            assert name in repro.__all__
            assert getattr(repro, name) is not None

    def test_minimal_user_journey(self):
        """The README snippet's skeleton must keep working."""
        from repro import Engine, FilterRule, TracepointSpec, TracingSpec, VNetTracer
        from repro.net.stack import KernelNode
        from repro.net.device import VethDevice
        from repro.net.addressing import IPv4Address

        engine = Engine()
        node = KernelNode(engine, "n1", num_cpus=2)
        VethDevice(node, "veth0")
        tracer = VNetTracer(engine)
        tracer.add_agent(node)
        tracer.deploy(
            TracingSpec(
                rule=FilterRule(dst_port=80),
                tracepoints=[TracepointSpec(node="n1", hook="dev:veth0", label="x")],
            )
        )
        engine.run(until=10_000_000)
        assert node.hooks.has_attachments("dev:veth0")
