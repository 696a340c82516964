"""Packet and header wire formats."""

import pytest
from hypothesis import given, strategies as st

from repro.net.addressing import IPv4Address, MACAddress
from repro.net.checksum import verify_checksum
from repro.net.packet import (
    ETHERTYPE_IPV4,
    EthernetHeader,
    HeaderError,
    IPPROTO_TCP,
    IPPROTO_UDP,
    IPv4Header,
    Packet,
    TCP_FLAG_SYN,
    TCPHeader,
    TCPOPT_TRACE_ID,
    UDPHeader,
    VXLANHeader,
    make_tcp_packet,
    make_udp_packet,
)

MAC_A = MACAddress.from_index(1)
MAC_B = MACAddress.from_index(2)
IP_A = IPv4Address("10.0.0.1")
IP_B = IPv4Address("10.0.0.2")

VXLAN_PORT = 4789
ports = st.integers(min_value=1, max_value=65535)
# from_bytes decapsulates VXLAN_PORT datagrams, so a plain-UDP roundtrip
# must not land on it (TestVxlanPortWithoutVxlan pins what happens there).
plain_udp_ports = ports.filter(lambda port: port != VXLAN_PORT)
payloads = st.binary(min_size=0, max_size=200)


def _udp_packet(payload=b"hello-vnettracer"):
    packet = make_udp_packet(MAC_A, MAC_B, IP_A, IP_B, 1234, 5678, payload)
    packet.ip.identification, packet.ip.ttl, packet.ip.dscp = 0xBEEF, 17, 10
    return packet


def _tcp_packet(payload=b"segment-bytes"):
    options = bytes([TCPOPT_TRACE_ID, 6]) + bytes.fromhex("deadbeef") + b"\x01\x01"
    return make_tcp_packet(MAC_A, MAC_B, IP_A, IP_B, 40000, 5201, payload,
                           seq=0xFFFFFFF0, ack=77, flags=0x18, options=options)


def _vxlan_packet(payload=b"inner-data"):
    return Packet(
        [
            EthernetHeader(MAC_B, MAC_A),
            IPv4Header(IPv4Address("192.168.0.1"), IPv4Address("192.168.0.2"), IPPROTO_UDP,
                       identification=7),
            UDPHeader(49152, VXLAN_PORT),
            VXLANHeader(42),
        ],
        make_udp_packet(MAC_A, MAC_B, IP_A, IP_B, 5, 6, payload),
    )


# Wire images recorded from the serialiser this one replaced: the format
# is pinned by bytes, not by a second implementation.
GOLDEN = {
    _udp_packet: (
        "02000000000202000000000108004528002cbeef00001111d6a70a0000010a000002"
        "04d2162e0018000068656c6c6f2d766e6574747261636572"
    ),
    _tcp_packet: (
        "02000000000202000000000108004500003d00000000400666b90a0000010a000002"
        "9c401451fffffff00000004d7018ffff00000000fd06deadbeef0101"
        "7365676d656e742d6279746573"
    ),
    _vxlan_packet: (
        "020000000002020000000001080045000058000700004011f93ac0a80001c0a80002"
        "c00012b5004400000800000000002a00"
        "02000000000202000000000108004500002600000000401166c50a0000010a000002"
        "0005000600120000696e6e65722d64617461"
    ),
}


class TestHeaderRoundtrips:
    def test_ethernet_roundtrip(self):
        header = EthernetHeader(MAC_B, MAC_A, 0x0800)
        parsed = EthernetHeader.unpack(header.pack())
        assert (parsed.dst, parsed.src, parsed.ethertype) == (MAC_B, MAC_A, 0x0800)

    def test_ipv4_roundtrip(self):
        header = IPv4Header(IP_A, IP_B, IPPROTO_UDP, ttl=17, identification=0xBEEF)
        parsed = IPv4Header.unpack(header.pack())
        assert parsed.src == IP_A and parsed.dst == IP_B
        assert parsed.ttl == 17 and parsed.identification == 0xBEEF

    def test_udp_roundtrip(self):
        parsed = UDPHeader.unpack(UDPHeader(1111, 2222, 100).pack())
        assert (parsed.src_port, parsed.dst_port, parsed.udp_length) == (1111, 2222, 100)

    def test_tcp_roundtrip_with_options(self):
        options = b"\x01\x01" + bytes([TCPOPT_TRACE_ID, 6]) + b"\xaa\xbb\xcc\xdd"
        header = TCPHeader(80, 443, seq=12345, ack=54321, flags=0x18, options=options)
        parsed = TCPHeader.unpack(header.pack())
        assert parsed.seq == 12345 and parsed.ack == 54321
        assert parsed.options == options
        assert parsed.find_option(TCPOPT_TRACE_ID) == b"\xaa\xbb\xcc\xdd"

    def test_vxlan_roundtrip(self):
        parsed = VXLANHeader.unpack(VXLANHeader(0xABCDE).pack())
        assert parsed.vni == 0xABCDE

    def test_vxlan_bad_vni(self):
        with pytest.raises(HeaderError):
            VXLANHeader(1 << 24)

    def test_tcp_options_must_be_aligned(self):
        with pytest.raises(HeaderError):
            TCPHeader(1, 2, options=b"\x01\x01\x01")

    def test_tcp_find_option_absent(self):
        assert TCPHeader(1, 2).find_option(TCPOPT_TRACE_ID) is None

    def test_truncated_headers_rejected(self):
        for cls in (EthernetHeader, IPv4Header, UDPHeader, TCPHeader, VXLANHeader):
            with pytest.raises(HeaderError):
                cls.unpack(b"\x00\x01")


class TestPacket:
    @given(src_port=ports, dst_port=plain_udp_ports, payload=payloads)
    def test_udp_wire_roundtrip(self, src_port, dst_port, payload):
        packet = make_udp_packet(MAC_A, MAC_B, IP_A, IP_B, src_port, dst_port, payload)
        parsed = Packet.from_bytes(packet.to_bytes())
        assert parsed.udp.src_port == src_port
        assert parsed.udp.dst_port == dst_port
        assert parsed.payload == payload
        assert parsed.ip.src == IP_A

    @given(seq=st.integers(min_value=0, max_value=0xFFFFFFFF), payload=payloads)
    def test_tcp_wire_roundtrip(self, seq, payload):
        packet = make_tcp_packet(MAC_A, MAC_B, IP_A, IP_B, 10, 20, payload, seq=seq)
        parsed = Packet.from_bytes(packet.to_bytes())
        assert parsed.tcp.seq == seq
        assert parsed.payload == payload

    def test_lengths_consistent(self):
        packet = make_udp_packet(MAC_A, MAC_B, IP_A, IP_B, 1, 2, b"x" * 50)
        assert packet.total_length == 14 + 20 + 8 + 50
        assert len(packet.to_bytes()) == packet.total_length

    def test_udp_length_field_fixed_up(self):
        packet = make_udp_packet(MAC_A, MAC_B, IP_A, IP_B, 1, 2, b"x" * 50)
        parsed = Packet.from_bytes(packet.to_bytes())
        assert parsed.udp.udp_length == 8 + 50

    def test_uids_are_unique(self):
        a = make_udp_packet(MAC_A, MAC_B, IP_A, IP_B, 1, 2, b"")
        b = make_udp_packet(MAC_A, MAC_B, IP_A, IP_B, 1, 2, b"")
        assert a.uid != b.uid

    def test_clone_copies_structure_not_identity(self):
        packet = make_tcp_packet(MAC_A, MAC_B, IP_A, IP_B, 1, 2, b"abc", seq=9)
        packet.metadata["k"] = "v"
        clone = packet.clone()
        assert clone.uid != packet.uid
        assert clone.metadata == {"k": "v"}
        clone.tcp.seq = 100
        assert packet.tcp.seq == 9  # deep header copy

    def test_vxlan_encapsulation_nests(self):
        inner = make_udp_packet(MAC_A, MAC_B, IP_A, IP_B, 5, 6, b"inner-data")
        outer = Packet(
            [
                EthernetHeader(MAC_B, MAC_A),
                IPv4Header(IPv4Address("192.168.0.1"), IPv4Address("192.168.0.2"), IPPROTO_UDP),
                UDPHeader(49152, 4789),
                VXLANHeader(42),
            ],
            inner,
        )
        assert outer.inner is inner
        assert outer.innermost is inner
        assert outer.total_length == 14 + 20 + 8 + 8 + inner.total_length
        parsed = Packet.from_bytes(outer.to_bytes())
        assert parsed.vxlan.vni == 42
        assert parsed.inner is not None
        assert parsed.inner.payload == b"inner-data"
        assert parsed.innermost.udp.dst_port == 6


class TestWireImage:
    @pytest.mark.parametrize("build", list(GOLDEN), ids=lambda build: build.__name__)
    def test_golden_vectors(self, build):
        assert build().to_bytes().hex() == GOLDEN[build]

    @pytest.mark.parametrize("build", list(GOLDEN), ids=lambda build: build.__name__)
    @given(payload=payloads)
    def test_image_roundtrips_through_from_bytes(self, build, payload):
        packet = build(payload)
        image = packet.to_bytes()
        assert len(image) == packet.total_length
        assert Packet.from_bytes(image).to_bytes() == image
        layers, parsed = [], Packet.from_bytes(image)
        while parsed is not None:
            layers.append(parsed)
            parsed = parsed.inner
        assert layers[-1].payload == payload
        offset = 0
        for layer in layers:
            # Every IPv4 header checksums to 0xFFFF and its length field
            # covers everything from the header to the end of the image.
            assert verify_checksum(image[offset + 14 : offset + 34])
            assert layer.ip.total_length == len(image) - offset - 14
            offset += layer.header_length

    @given(
        dscp=st.integers(0, 63), ttl=st.integers(0, 255), ident=st.integers(0, 0xFFFF),
        src=st.integers(0, 0xFFFFFFFF), dst=st.integers(0, 0xFFFFFFFF),
        total_length=st.integers(0, 0xFFFF),
    )
    def test_ipv4_checksum_valid_for_any_fields(self, dscp, ttl, ident, src, dst, total_length):
        header = IPv4Header(IPv4Address(src), IPv4Address(dst), IPPROTO_TCP, ttl=ttl,
                            identification=ident, total_length=total_length, dscp=dscp)
        assert verify_checksum(header.pack())

    def test_wire_image_is_a_fresh_mutable_buffer(self):
        packet = _udp_packet()
        image = packet.wire_image()
        assert isinstance(image, bytearray) and bytes(image) == packet.to_bytes()
        image[0] ^= 0xFF
        assert packet.wire_image() != image


class TestCloneIndependence:
    """Mutating a clone -- any header field, the TCP options, metadata,
    the payload, at either nesting level -- never reaches the original."""

    MUTATIONS = {
        "eth.dst": lambda p: setattr(p.eth, "dst", MACAddress.from_index(99)),
        "eth.src": lambda p: setattr(p.eth, "src", MACAddress.from_index(98)),
        "eth.ethertype": lambda p: setattr(p.eth, "ethertype", 0x86DD),
        "ip.src": lambda p: setattr(p.ip, "src", IPv4Address("9.9.9.9")),
        "ip.dst": lambda p: setattr(p.ip, "dst", IPv4Address("8.8.8.8")),
        "ip.protocol": lambda p: setattr(p.ip, "protocol", 1),
        "ip.ttl": lambda p: setattr(p.ip, "ttl", 1),
        "ip.identification": lambda p: setattr(p.ip, "identification", 0x1234),
        "ip.dscp": lambda p: setattr(p.ip, "dscp", 46),
        "payload": lambda p: setattr(p.innermost, "payload", b"changed"),
    }
    UDP_MUTATIONS = {
        "udp.src_port": lambda p: setattr(p.udp, "src_port", 1),
        "udp.dst_port": lambda p: setattr(p.udp, "dst_port", 2),
        "udp.checksum": lambda p: setattr(p.udp, "checksum", 0xFFFF),
    }
    TCP_MUTATIONS = {
        "tcp.src_port": lambda p: setattr(p.tcp, "src_port", 1),
        "tcp.dst_port": lambda p: setattr(p.tcp, "dst_port", 2),
        "tcp.seq": lambda p: setattr(p.tcp, "seq", 1),
        "tcp.ack": lambda p: setattr(p.tcp, "ack", 1),
        "tcp.flags": lambda p: setattr(p.tcp, "flags", TCP_FLAG_SYN),
        "tcp.window": lambda p: setattr(p.tcp, "window", 1),
        "tcp.options": lambda p: setattr(p.tcp, "options", b"\x01\x01\x01\x01"),
    }

    def _check(self, build, mutate, target=lambda packet: packet):
        original = build()
        original.metadata["gso_segs"] = 3
        before = original.to_bytes()
        clone = original.clone()
        assert clone.to_bytes() == before
        assert clone.uid != original.uid
        mutate(target(clone))
        clone.metadata["gso_segs"] = 1
        assert clone.to_bytes() != before
        assert original.to_bytes() == before
        assert original.metadata == {"gso_segs": 3}

    @pytest.mark.parametrize("name", list(MUTATIONS) + list(UDP_MUTATIONS))
    def test_udp_clone(self, name):
        self._check(_udp_packet, {**self.MUTATIONS, **self.UDP_MUTATIONS}[name])

    @pytest.mark.parametrize("name", list(MUTATIONS) + list(TCP_MUTATIONS))
    def test_tcp_clone(self, name):
        self._check(_tcp_packet, {**self.MUTATIONS, **self.TCP_MUTATIONS}[name])

    @pytest.mark.parametrize("name", list(MUTATIONS) + list(UDP_MUTATIONS))
    def test_nested_inner_clone(self, name):
        mutate = {**self.MUTATIONS, **self.UDP_MUTATIONS}[name]
        self._check(_vxlan_packet, mutate, target=lambda packet: packet.inner)

    def test_vxlan_header_and_inner_identity(self):
        original = _vxlan_packet()
        before = original.to_bytes()
        clone = original.clone()
        assert clone.inner is not original.inner
        assert clone.inner.uid != original.inner.uid
        clone.vxlan.vni = 7
        assert original.to_bytes() == before and clone.to_bytes() != before

    def test_accessors_resolve_the_clones_own_headers(self):
        original = _tcp_packet()
        clone = original.clone()
        for name in ("eth", "ip", "tcp"):
            assert getattr(clone, name) is not getattr(original, name)
            assert getattr(clone, name) in clone.headers
        assert clone.udp is None and clone.vxlan is None


class TestHostileImages:
    def test_ip_options_rejected(self):
        """IHL=6 used to parse L4 at offset 20, four bytes early."""
        image = bytearray(_udp_packet(b"x" * 12).to_bytes())
        image[14] = 0x46
        with pytest.raises(HeaderError, match="IHL=6"):
            Packet.from_bytes(bytes(image))
        with pytest.raises(HeaderError):
            IPv4Header.unpack(bytes(image[14:]))

    @pytest.mark.parametrize("build", list(GOLDEN), ids=lambda build: build.__name__)
    def test_every_prefix_parses_or_raises_header_error(self, build):
        image = build().to_bytes()
        assert Packet.from_bytes(image).to_bytes() == image
        for cut in range(len(image)):
            try:
                Packet.from_bytes(image[:cut])
            except HeaderError:
                pass


class TestVxlanPortWithoutVxlan:
    """A plain datagram that happens to use the VXLAN port: from_bytes
    tries to decapsulate it and fails with the typed error."""

    @pytest.mark.parametrize("payload", [
        b"",  # truncated VXLAN header
        b"\x00" * 16,  # I flag clear
        b"hello-not-vxlan",  # 'h' has the I bit set; 7 bytes are no Ethernet header
    ])
    def test_raises_header_error(self, payload):
        image = make_udp_packet(MAC_A, MAC_B, IP_A, IP_B, 1, VXLAN_PORT, payload).to_bytes()
        with pytest.raises(HeaderError):
            Packet.from_bytes(image)
        assert Packet.from_bytes(image, decapsulate_vxlan_port=0).payload == payload

    @given(payload=payloads)
    def test_never_an_untyped_error(self, payload):
        image = make_udp_packet(MAC_A, MAC_B, IP_A, IP_B, 1, VXLAN_PORT, payload).to_bytes()
        try:
            Packet.from_bytes(image)
        except HeaderError:
            pass
