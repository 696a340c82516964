"""RFC 1071 Internet checksum.

The packet serialiser computes the IPv4 header checksum inline and
leaves transport checksums to (simulated) offload; this is the plain
reference the packet tests verify those header bytes against.
"""

from __future__ import annotations


def ones_complement_sum(data: bytes) -> int:
    """16-bit one's-complement sum of ``data`` (odd length zero-padded)."""
    if len(data) % 2:
        data = data + b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
        total = (total & 0xFFFF) + (total >> 16)
    # Fold any remaining carry.
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return total


def internet_checksum(data: bytes) -> int:
    """The Internet checksum (complement of the one's-complement sum)."""
    return (~ones_complement_sum(data)) & 0xFFFF


def verify_checksum(data_with_checksum: bytes) -> bool:
    """True when a buffer that embeds its checksum sums to 0xFFFF."""
    return ones_complement_sum(data_with_checksum) == 0xFFFF
