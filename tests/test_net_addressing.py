"""IPv4/MAC addresses: parsing, formatting, subnets (with hypothesis)."""

import pytest
from hypothesis import given, strategies as st

from repro.net.addressing import AddressError, IPv4Address, MACAddress


class TestIPv4:
    def test_parse_and_format_roundtrip(self):
        assert str(IPv4Address("192.168.1.10")) == "192.168.1.10"

    def test_int_roundtrip(self):
        assert IPv4Address(0xC0A8010A) == IPv4Address("192.168.1.10")

    def test_copy_constructor(self):
        a = IPv4Address("10.0.0.1")
        assert IPv4Address(a) == a

    @pytest.mark.parametrize("bad", ["", "1.2.3", "1.2.3.4.5", "256.1.1.1", "a.b.c.d"])
    def test_malformed_literals_rejected(self, bad):
        with pytest.raises(AddressError):
            IPv4Address(bad)

    def test_out_of_range_int_rejected(self):
        with pytest.raises(AddressError):
            IPv4Address(1 << 32)

    def test_subnet_membership(self):
        ip = IPv4Address("10.1.2.3")
        assert ip.in_subnet(IPv4Address("10.1.0.0"), 16)
        assert not ip.in_subnet(IPv4Address("10.2.0.0"), 16)
        assert ip.in_subnet(IPv4Address("0.0.0.0"), 0)
        assert ip.in_subnet(ip, 32)

    def test_bad_prefix_rejected(self):
        with pytest.raises(AddressError):
            IPv4Address("1.1.1.1").in_subnet(IPv4Address("1.1.1.0"), 33)

    def test_hashable_and_ordered(self):
        a, b = IPv4Address("1.0.0.1"), IPv4Address("1.0.0.2")
        assert len({a, b, IPv4Address("1.0.0.1")}) == 2

    @given(st.integers(min_value=0, max_value=0xFFFFFFFF))
    def test_bytes_roundtrip(self, value):
        ip = IPv4Address(value)
        assert IPv4Address.from_bytes(ip.to_bytes()) == ip

    @given(st.integers(min_value=0, max_value=0xFFFFFFFF))
    def test_string_roundtrip(self, value):
        ip = IPv4Address(value)
        assert IPv4Address(str(ip)) == ip


class TestMAC:
    def test_parse_and_format_roundtrip(self):
        text = "02:00:00:00:00:2a"
        assert str(MACAddress(text)) == text

    def test_dash_separator_accepted(self):
        assert MACAddress("02-00-00-00-00-01") == MACAddress("02:00:00:00:00:01")

    @pytest.mark.parametrize("bad", ["", "02:00", "zz:00:00:00:00:00", "0200.0000.0001"])
    def test_malformed_rejected(self, bad):
        with pytest.raises(AddressError):
            MACAddress(bad)

    def test_broadcast(self):
        assert MACAddress.broadcast().is_broadcast()
        assert not MACAddress.from_index(5).is_broadcast()

    def test_from_index_deterministic_and_local(self):
        mac = MACAddress.from_index(7)
        assert mac == MACAddress.from_index(7)
        assert mac.value >> 40 == 0x02  # locally administered prefix

    @given(st.integers(min_value=0, max_value=0xFFFFFFFFFFFF))
    def test_bytes_roundtrip(self, value):
        mac = MACAddress(value)
        assert MACAddress.from_bytes(mac.to_bytes()) == mac
