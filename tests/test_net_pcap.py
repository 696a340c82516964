"""pcap capture: wire format round trips, filtering, live capture."""

import io
import struct

import pytest

from repro.core.config import FilterRule
from repro.net.addressing import IPv4Address, MACAddress
from repro.net.packet import IPPROTO_UDP, Packet, make_udp_packet
from repro.net.pcap import (
    GLOBAL_HEADER,
    LINKTYPE_ETHERNET,
    PCAP_MAGIC,
    PacketCapture,
    PcapError,
    PcapReader,
    PcapWriter,
)

MAC_A, MAC_B = MACAddress.from_index(1), MACAddress.from_index(2)
IP_A, IP_B = IPv4Address("10.1.0.1"), IPv4Address("10.1.0.2")


def _packet(payload=b"capture-me", dst_port=9000):
    return make_udp_packet(MAC_A, MAC_B, IP_A, IP_B, 1000, dst_port, payload)


class TestWireFormat:
    def test_global_header_fields(self):
        buffer = io.BytesIO()
        PcapWriter(buffer, snaplen=1234)
        (magic, major, minor, _tz, _sig, snaplen, linktype) = GLOBAL_HEADER.unpack(
            buffer.getvalue()[: GLOBAL_HEADER.size]
        )
        assert magic == PCAP_MAGIC
        assert (major, minor) == (2, 4)
        assert snaplen == 1234
        assert linktype == LINKTYPE_ETHERNET

    def test_roundtrip_single_packet(self):
        buffer = io.BytesIO()
        wire = _packet().to_bytes()
        with PcapWriter(buffer) as writer:
            writer.write_packet(wire, 1_500_000_000 + 42_000)
        buffer.seek(0)
        records = list(PcapReader(buffer))
        assert len(records) == 1
        timestamp_ns, data = records[0]
        assert data == wire
        assert timestamp_ns == 1_500_000_000 + 42_000

    def test_roundtrip_many_packets_order_preserved(self):
        buffer = io.BytesIO()
        wires = [_packet(payload=bytes([i]) * (i + 1)).to_bytes() for i in range(10)]
        with PcapWriter(buffer) as writer:
            for index, wire in enumerate(wires):
                writer.write_packet(wire, index * 1_000_000)
        buffer.seek(0)
        read_back = [data for _ts, data in PcapReader(buffer)]
        assert read_back == wires

    def test_snaplen_truncates_but_keeps_orig_len(self):
        buffer = io.BytesIO()
        wire = _packet(payload=b"x" * 500).to_bytes()
        with PcapWriter(buffer, snaplen=60) as writer:
            writer.write_packet(wire, 0)
        raw = buffer.getvalue()
        _s, _us, incl_len, orig_len = struct.unpack_from(
            "<IIII", raw, GLOBAL_HEADER.size
        )
        assert incl_len == 60
        assert orig_len == len(wire)

    def test_bad_magic_rejected(self):
        buffer = io.BytesIO(b"\x00" * GLOBAL_HEADER.size)
        with pytest.raises(PcapError, match="magic"):
            PcapReader(buffer)

    def test_truncated_record_rejected(self):
        buffer = io.BytesIO()
        with PcapWriter(buffer) as writer:
            writer.write_packet(b"\x01\x02\x03\x04", 0)
        truncated = io.BytesIO(buffer.getvalue()[:-2])
        with pytest.raises(PcapError, match="truncated"):
            list(PcapReader(truncated))

    def test_file_path_roundtrip(self, tmp_path):
        path = str(tmp_path / "cap.pcap")
        wire = _packet().to_bytes()
        with PcapWriter(path) as writer:
            writer.write_packet(wire, 7_000)
        reader = PcapReader(path)
        assert [data for _ts, data in reader] == [wire]
        reader.close()


class TestLiveCapture:
    def test_capture_on_device_hook(self, engine, two_nodes):
        node_a, node_b, ip_a, ip_b = two_nodes
        capture = PacketCapture(node_b)
        node_b.hooks.attach("dev:veth0", capture)
        node_b.bind_udp(ip_b, 9000)
        client = node_a.bind_udp(ip_a, 9001)
        for i in range(3):
            engine.schedule(i * 1_000_000, client.sendto, ip_b, 9000, b"pkt")
        engine.run()
        assert len(capture.records) == 3
        parsed = capture.packets()
        assert all(p.udp.dst_port == 9000 for p in parsed)

    def test_capture_filter(self, engine, two_nodes):
        node_a, node_b, ip_a, ip_b = two_nodes
        rule = FilterRule(dst_port=9000, protocol=IPPROTO_UDP)
        capture = PacketCapture(node_b, rule=rule)
        node_b.hooks.attach("dev:veth0", capture)
        node_b.bind_udp(ip_b, 9000)
        node_b.bind_udp(ip_b, 9100)
        client = node_a.bind_udp(ip_a, 9001)
        client.sendto(ip_b, 9000, b"match")
        client.sendto(ip_b, 9100, b"no-match")
        engine.run()
        assert len(capture.records) == 1

    def test_max_packets_cap(self, engine, two_nodes):
        node_a, node_b, ip_a, ip_b = two_nodes
        capture = PacketCapture(node_b, max_packets=2)
        node_b.hooks.attach("dev:veth0", capture)
        node_b.bind_udp(ip_b, 9000)
        client = node_a.bind_udp(ip_a, 9001)
        for i in range(5):
            engine.schedule(i * 1_000_000, client.sendto, ip_b, 9000, b"x")
        engine.run()
        assert len(capture.records) == 2
        assert capture.dropped == 3

    def test_save_and_reload(self, engine, two_nodes, tmp_path):
        node_a, node_b, ip_a, ip_b = two_nodes
        capture = PacketCapture(node_b)
        node_b.hooks.attach("dev:veth0", capture)
        node_b.bind_udp(ip_b, 9000)
        node_a.bind_udp(ip_a, 9001).sendto(ip_b, 9000, b"persist")
        engine.run()
        path = str(tmp_path / "live.pcap")
        assert capture.save(path) == 1
        (timestamp_ns, wire), = list(PcapReader(path))
        packet = Packet.from_bytes(wire)
        assert packet.payload == b"persist"
        # pcap resolution is microseconds; timestamps survive to that grain.
        assert timestamp_ns % 1000 == 0

    def test_capture_costs_time(self, engine, two_nodes):
        node_a, node_b, ip_a, ip_b = two_nodes
        capture = PacketCapture(node_b)
        from repro.ebpf.probes import ProbeEvent

        cost = capture.handle(ProbeEvent(hook="dev:veth0", packet=_packet()))
        assert cost > 0
