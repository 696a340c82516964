"""RFC 1071 checksum."""

from hypothesis import given, strategies as st

from repro.net.checksum import (
    internet_checksum,
    ones_complement_sum,
    verify_checksum,
)


class TestChecksumBasics:
    def test_known_vector(self):
        # Classic example from RFC 1071 discussions.
        data = bytes.fromhex("0001f203f4f5f6f7")
        assert internet_checksum(data) == (~0xDDF2) & 0xFFFF

    def test_empty_buffer(self):
        assert internet_checksum(b"") == 0xFFFF

    def test_odd_length_padded(self):
        assert internet_checksum(b"\xff") == internet_checksum(b"\xff\x00")

    def test_verify_with_embedded_checksum(self):
        payload = b"hello world!"
        csum = internet_checksum(payload)
        with_csum = payload + csum.to_bytes(2, "big")
        assert verify_checksum(with_csum)

    @given(st.binary(min_size=0, max_size=256))
    def test_checksum_in_16bit_range(self, data):
        assert 0 <= internet_checksum(data) <= 0xFFFF

    @given(st.binary(min_size=0, max_size=128))
    def test_sum_is_order_sensitive_but_bounded(self, data):
        assert 0 <= ones_complement_sum(data) <= 0xFFFF
