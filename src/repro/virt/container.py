"""Docker-style containers: a veth pair into a bridge, an IP, sockets.

A container shares its VM's kernel (CPUs, softirq machinery, hooks) but
owns a network identity: the inside half of a veth pair carries the
container's IP/MAC, the outside half is enslaved to ``docker0`` or an
overlay bridge.  Packets to/from the container therefore traverse
veth -> bridge (-> VXLAN ...) hops inside the same kernel -- the deep
data path of Fig. 13(b).
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.net.addressing import IPv4Address
from repro.net.bridge import BridgeDevice
from repro.net.device import VethDevice

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.stack import KernelNode, UDPSocket
    from repro.net.tcp import TCPConnection, TCPListener

_veth_counter = [0]


def _next_veth_suffix() -> str:
    _veth_counter[0] += 1
    return f"{_veth_counter[0]:07x}"


class Container:
    """One container attached to a bridge on its VM's kernel."""

    def __init__(
        self,
        node: "KernelNode",
        name: str,
        ip: IPv4Address,
        bridge: BridgeDevice,
        host_veth_name: Optional[str] = None,
    ):
        self.node = node
        self.name = name
        self.ip = ip
        self.bridge = bridge
        host_name = host_veth_name or f"veth{_next_veth_suffix()}"
        self.veth_inside, self.veth_outside = VethDevice.create_pair(
            node, f"eth0@{name}", node, host_name
        )
        self.veth_inside.ip = ip
        bridge.add_port(self.veth_outside)
        # Pre-seed the bridge FDB so host->container forwarding works
        # before the container has transmitted anything.
        bridge.fdb[self.veth_inside.mac.value] = self.veth_outside
        # The container routes everything out its eth0.
        node.add_route(
            IPv4Address(ip.value & 0xFFFF0000), 16, self.veth_inside, src_ip=ip
        )
        node.add_neighbor(ip, self.veth_inside.mac)

    @property
    def mac(self):
        return self.veth_inside.mac

    @property
    def host_veth_name(self) -> str:
        return self.veth_outside.name

    # -- application endpoints (bound to the container's IP) ---------------

    def bind_udp(self, port: int, cpu_index: Optional[int] = None) -> "UDPSocket":
        return self.node.bind_udp(self.ip, port, cpu_index=cpu_index)

    def tcp_listen(self, port: int, **kwargs) -> "TCPListener":
        return self.node.tcp.listen(self.ip, port, **kwargs)

    def tcp_connect(self, remote_ip: IPv4Address, remote_port: int, **kwargs) -> "TCPConnection":
        return self.node.tcp.connect(self.ip, remote_ip, remote_port, **kwargs)

    def __repr__(self) -> str:
        return f"<Container {self.name} ip={self.ip} veth={self.host_veth_name}>"
