"""Trace-ID embedding round trips, hammered with hypothesis.

The paper's kernel patch (§III-B) appends a 4-byte ID to UDP payloads
(``__skb_put`` / ``pskb_trim_rcsum``) and writes a TCP option
(``tcp_options_write``).  Applications must never observe the ID --
that is the property below, over arbitrary payloads and RNG seeds.
"""

from hypothesis import given, settings, strategies as st

from repro.net.addressing import IPv4Address, MACAddress
from repro.net.packet import make_tcp_packet, make_udp_packet
from repro.net.traceid import (
    META_TRACE_ID,
    META_UDP_ID_EMBEDDED,
    TraceIDEngine,
    extract_trace_id,
)
from repro.sim.rng import SeededRNG

MAC_A = MACAddress("02:00:00:00:00:01")
MAC_B = MACAddress("02:00:00:00:00:02")
IP_A = IPv4Address("10.0.0.1")
IP_B = IPv4Address("10.0.0.2")

payloads = st.binary(min_size=0, max_size=512)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _udp(payload: bytes):
    return make_udp_packet(MAC_A, MAC_B, IP_A, IP_B, 4000, 5000, payload)


class TestUDPRoundTrip:
    @given(payloads, seeds)
    def test_embed_then_strip_preserves_payload(self, payload, seed):
        engine = TraceIDEngine(SeededRNG(seed))
        packet = _udp(payload)
        engine.embed_udp(packet)
        assert len(packet.payload) == len(payload) + 4
        assert packet.payload[: len(payload)] == payload  # app bytes untouched
        engine.strip_udp(packet)
        assert packet.payload == payload
        assert packet.metadata[META_UDP_ID_EMBEDDED] is False

    @given(payloads, seeds)
    def test_wire_extraction_matches_embedded_id(self, payload, seed):
        engine = TraceIDEngine(SeededRNG(seed))
        packet = _udp(payload)
        engine.embed_udp(packet)
        assert extract_trace_id(packet) == packet.metadata[META_TRACE_ID]
        # After the receiver trims, the app-facing packet has no ID.
        engine.strip_udp(packet)
        assert extract_trace_id(packet) is None

    @given(seeds)
    def test_strip_without_embed_is_a_noop(self, seed):
        engine = TraceIDEngine(SeededRNG(seed))
        packet = _udp(b"data")
        assert engine.strip_udp(packet) == 0
        assert packet.payload == b"data"

    @given(payloads, seeds)
    @settings(max_examples=25)
    def test_double_embed_ids_both_recoverable_in_order(self, payload, seed):
        # Two embeds stack (outer ID is the wire-visible one); each
        # strip removes exactly one layer.
        engine = TraceIDEngine(SeededRNG(seed))
        packet = _udp(payload)
        engine.embed_udp(packet)
        first = packet.metadata[META_TRACE_ID]
        engine.embed_udp(packet)
        second = packet.metadata[META_TRACE_ID]
        assert extract_trace_id(packet) == second
        engine.strip_udp(packet)
        assert len(packet.payload) == len(payload) + 4
        assert extract_trace_id(packet) is None  # metadata says stripped
        del packet.metadata[META_TRACE_ID]
        packet.metadata[META_UDP_ID_EMBEDDED] = True
        assert extract_trace_id(packet) == first


class TestTCPRoundTrip:
    @given(payloads, seeds)
    def test_option_round_trips_through_wire_format(self, payload, seed):
        engine = TraceIDEngine(SeededRNG(seed))
        packet = make_tcp_packet(MAC_A, MAC_B, IP_A, IP_B, 4000, 5000, payload)
        assert engine.embed_tcp(packet) > 0
        assert packet.payload == payload  # options, not payload, carry the ID
        assert extract_trace_id(packet) == packet.metadata[META_TRACE_ID]

    @given(seeds)
    def test_full_option_space_refuses_embedding(self, seed):
        engine = TraceIDEngine(SeededRNG(seed))
        packet = make_tcp_packet(
            MAC_A, MAC_B, IP_A, IP_B, 4000, 5000, b"", options=b"\x01" * 36
        )
        assert engine.embed_tcp(packet) == 0
        assert extract_trace_id(packet) is None

    @given(seeds)
    def test_ids_unique_within_a_flow(self, seed):
        engine = TraceIDEngine(SeededRNG(seed))
        seen = {engine.tcp_option_bytes()[1] for _ in range(64)}
        assert len(seen) == 64


class TestParentPropagation:
    """Parent-ID fan-out/fan-in edge cases (docs/SERVICES.md)."""

    parents = st.lists(
        st.integers(min_value=1, max_value=2**32 - 1), min_size=1, max_size=4
    )
    big_payloads = st.binary(min_size=400, max_size=640)

    @given(payloads, seeds, parents)
    def test_udp_parents_round_trip_in_order(self, payload, seed, parent_list):
        from repro.net.traceid import extract_parent_ids

        engine = TraceIDEngine(SeededRNG(seed))
        packet = _udp(payload)
        engine.embed_udp(packet, parents=parent_list)
        assert extract_parent_ids(packet) == tuple(parent_list)
        assert extract_trace_id(packet) == packet.metadata[META_TRACE_ID]
        engine.strip_udp(packet)
        assert packet.payload == payload

    @given(payloads, seeds, st.integers(min_value=1, max_value=2**32 - 1))
    def test_fan_in_joins_two_parents(self, payload, seed, parent_a):
        # A join point forwards one packet on behalf of two upstream
        # requests: both parents ride the embed, ordered, and the
        # fresh ID stays last so single-ID readers keep working.
        from repro.net.traceid import extract_parent_ids

        engine = TraceIDEngine(SeededRNG(seed))
        parent_b = (parent_a + 1) % 2**32 or 1
        packet = _udp(payload)
        engine.embed_udp(packet, parents=(parent_a, parent_b))
        assert extract_parent_ids(packet) == (parent_a, parent_b)
        assert packet.payload[-4:] != payload[-4:] or len(payload) < 4
        assert len(packet.payload) == len(payload) + 12
        engine.strip_udp(packet)
        assert packet.payload == payload

    @given(big_payloads, seeds, parents)
    @settings(max_examples=50)
    def test_min_mtu_truncation_is_all_or_nothing(self, payload, seed, parent_list):
        # At the IPv4 minimum MTU (576), the embed either fits whole
        # -- payload ++ parents ++ id -- or is refused whole and
        # counted; a partial suffix would corrupt parent extraction.
        from repro.net.traceid import extract_parent_ids

        engine = TraceIDEngine(SeededRNG(seed))
        packet = _udp(payload)
        before = bytes(packet.payload)
        total = packet.total_length
        extra = 4 * (1 + len(parent_list))
        cost = engine.embed_udp(packet, mtu=576, parents=parent_list)
        if total + extra <= 576:
            assert cost > 0
            assert extract_parent_ids(packet) == tuple(parent_list)
            assert len(packet.payload) == len(before) + extra
        else:
            assert cost == 0
            assert engine.embeds_refused_mtu == 1
            assert bytes(packet.payload) == before
            assert extract_trace_id(packet) is None

    def test_duplicate_parent_on_fast_retransmit(self, engine, two_nodes):
        # A lost segment is fast-retransmitted with a *fresh* trace ID
        # but the *same* parent: downstream joins must tolerate the
        # duplicate parent observation for one byte range.
        from repro.ebpf.probes import CallbackAttachment
        from repro.net.tcp import MSS
        from repro.net.traceid import extract_parent_ids

        node_a, node_b, ip_a, ip_b = two_nodes
        TraceIDEngine.attach(node_a)
        sent = []
        node_a.hooks.attach(
            "dev:veth0", CallbackAttachment(lambda ev: sent.append(ev.packet))
        )
        veth_b = node_b.device("veth0")
        original = veth_b.receive
        counter = {"n": 0}

        def flaky(packet):
            if packet.payload_length > 0 and packet.tcp is not None:
                counter["n"] += 1
                if counter["n"] == 3:
                    return  # dropped on the floor
            original(packet)

        veth_b.receive = flaky
        delivered = {"bytes": 0}

        def on_conn(conn):
            conn.on_data = lambda c, n, p: delivered.__setitem__(
                "bytes", delivered["bytes"] + n
            )

        node_b.tcp.listen(ip_b, 5000, on_connection=on_conn)
        conn = node_a.tcp.connect(ip_a, ip_b, 5000)
        conn.trace_parent = 0xABCD1234
        conn.on_established = lambda c: c.send_app_bytes(40 * MSS)
        engine.run()

        assert delivered["bytes"] == 40 * MSS
        assert conn.retransmits >= 1
        data = [p for p in sent if p.payload_length > 0 and p.tcp is not None]
        # Every wire transmission -- original and retransmit -- carries
        # the same parent with a fresh per-transmission trace ID.
        assert all(extract_parent_ids(p) == (0xABCD1234,) for p in data)
        by_seq = {}
        for p in data:
            by_seq.setdefault(p.tcp.seq, []).append(extract_trace_id(p))
        dup = [ids for ids in by_seq.values() if len(ids) > 1]
        assert dup, "expected at least one retransmitted byte range"
        assert all(len(set(ids)) == len(ids) for ids in dup)  # fresh IDs
