"""Reproduction of vNetTracer (Suo, Zhao, Chen, Rao -- ICDCS 2018):
efficient and programmable packet tracing in virtualized networks.

The package provides:

* :mod:`repro.core` -- vNetTracer itself (dispatcher, agents, eBPF
  script compiler, ring buffers, collector, trace DB, clock sync,
  metrics), entry point :class:`repro.core.VNetTracer`;
* :mod:`repro.ebpf` -- an eBPF substrate built from scratch: ISA,
  assembler, verifier, interpreter VM, maps, helpers, probes;
* :mod:`repro.net` -- a simulated Linux network stack: packets with
  real header layouts, devices (veth/bridge/VXLAN/NIC), softirqs, RPS,
  sockets, UDP and TCP;
* :mod:`repro.virt` -- hypervisor substrates: KVM/virtio, Xen
  netfront/netback with a credit2-style scheduler, Open vSwitch,
  containers and overlay networks;
* :mod:`repro.workloads` -- Sockperf, iPerf, Netperf, memcached (Data
  Caching), CPU hogs;
* :mod:`repro.baselines` -- a SystemTap-style tracer for the overhead
  comparison;
* :mod:`repro.sim` -- the deterministic discrete-event engine.

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-figure reproduction index.
"""

from repro.core import (
    ActionSpec,
    CollectReport,
    DeployReport,
    FilterRule,
    GlobalConfig,
    TracepointSpec,
    TracingSpec,
    VNetTracer,
)
from repro.faults import ChannelFaults, CrashEvent, FaultPlan, RingPressureEvent
from repro.net.traceid import TraceIDEngine
from repro.services import ServiceGraph
from repro.sim import Engine

__version__ = "1.0.0"

# The blessed public surface.  tests/test_repro_api.py asserts this list
# matches the README's "Public API" section -- update both together.
__all__ = [
    "VNetTracer",
    "TracingSpec",
    "FilterRule",
    "TracepointSpec",
    "ActionSpec",
    "GlobalConfig",
    "FaultPlan",
    "ChannelFaults",
    "CrashEvent",
    "RingPressureEvent",
    "DeployReport",
    "CollectReport",
    "TraceIDEngine",
    "ServiceGraph",
    "Engine",
    "__version__",
]
