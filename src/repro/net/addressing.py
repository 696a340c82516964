"""IPv4 and MAC address value types.

Small immutable wrappers over integers with the parsing/formatting the
rest of the substrate needs.  Using value types (rather than raw strings)
keeps flow keys hashable and lets eBPF filter compilation emit the
numeric comparisons directly.
"""

from __future__ import annotations

import re
from typing import Union

_IPV4_RE = re.compile(r"^(\d{1,3})\.(\d{1,3})\.(\d{1,3})\.(\d{1,3})$")
_MAC_RE = re.compile(r"^([0-9a-fA-F]{2}[:\-]){5}[0-9a-fA-F]{2}$")


class AddressError(ValueError):
    """Raised for malformed address literals."""


class IPv4Address:
    """A 32-bit IPv4 address."""

    __slots__ = ("value",)

    def __init__(self, address: Union[str, int, "IPv4Address"]):
        if isinstance(address, IPv4Address):
            self.value = address.value
        elif isinstance(address, int):
            if not 0 <= address <= 0xFFFFFFFF:
                raise AddressError(f"IPv4 int out of range: {address}")
            self.value = address
        elif isinstance(address, str):
            match = _IPV4_RE.match(address)
            if not match:
                raise AddressError(f"malformed IPv4 literal: {address!r}")
            octets = [int(part) for part in match.groups()]
            if any(octet > 255 for octet in octets):
                raise AddressError(f"IPv4 octet out of range: {address!r}")
            self.value = (
                (octets[0] << 24) | (octets[1] << 16) | (octets[2] << 8) | octets[3]
            )
        else:
            raise AddressError(f"cannot build IPv4Address from {address!r}")

    def to_bytes(self) -> bytes:
        return self.value.to_bytes(4, "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "IPv4Address":
        if len(data) != 4:
            raise AddressError(f"need 4 bytes, got {len(data)}")
        return cls(int.from_bytes(data, "big"))

    def in_subnet(self, network: "IPv4Address", prefix_len: int) -> bool:
        """True if this address falls inside network/prefix_len."""
        if not 0 <= prefix_len <= 32:
            raise AddressError(f"bad prefix length {prefix_len}")
        if prefix_len == 0:
            return True
        mask = (0xFFFFFFFF << (32 - prefix_len)) & 0xFFFFFFFF
        return (self.value & mask) == (network.value & mask)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IPv4Address) and self.value == other.value

    def __hash__(self) -> int:
        return hash(("ipv4", self.value))

    def __str__(self) -> str:
        v = self.value
        return f"{(v >> 24) & 0xFF}.{(v >> 16) & 0xFF}.{(v >> 8) & 0xFF}.{v & 0xFF}"

    def __repr__(self) -> str:
        return f"IPv4Address({str(self)!r})"


class MACAddress:
    """A 48-bit Ethernet MAC address."""

    __slots__ = ("value",)

    BROADCAST_VALUE = 0xFFFFFFFFFFFF

    def __init__(self, address: Union[str, int, "MACAddress"]):
        if isinstance(address, MACAddress):
            self.value = address.value
        elif isinstance(address, int):
            if not 0 <= address <= 0xFFFFFFFFFFFF:
                raise AddressError(f"MAC int out of range: {address}")
            self.value = address
        elif isinstance(address, str):
            if not _MAC_RE.match(address):
                raise AddressError(f"malformed MAC literal: {address!r}")
            cleaned = address.replace("-", ":")
            self.value = int(cleaned.replace(":", ""), 16)
        else:
            raise AddressError(f"cannot build MACAddress from {address!r}")

    @classmethod
    def broadcast(cls) -> "MACAddress":
        return cls(cls.BROADCAST_VALUE)

    @classmethod
    def from_index(cls, index: int) -> "MACAddress":
        """Deterministic locally-administered MAC for the nth simulated port."""
        if not 0 <= index <= 0xFFFFFFFF:
            raise AddressError(f"MAC index out of range: {index}")
        return cls(0x02_00_00_00_00_00 | index)

    def is_broadcast(self) -> bool:
        return self.value == self.BROADCAST_VALUE

    def to_bytes(self) -> bytes:
        return self.value.to_bytes(6, "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "MACAddress":
        if len(data) != 6:
            raise AddressError(f"need 6 bytes, got {len(data)}")
        return cls(int.from_bytes(data, "big"))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MACAddress) and self.value == other.value

    def __str__(self) -> str:
        raw = f"{self.value:012x}"
        return ":".join(raw[i : i + 2] for i in range(0, 12, 2))

    def __repr__(self) -> str:
        return f"MACAddress({str(self)!r})"
