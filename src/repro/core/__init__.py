"""vNetTracer: the paper's contribution.

The pipeline mirrors Fig. 2 of the paper:

* users describe *what* to trace as a :class:`~repro.core.config.TracingSpec`
  (filter rules + tracepoints + actions + global config);
* the :class:`~repro.core.dispatcher.ControlDataDispatcher` on the
  master node formats control packages and ships them to per-node
  :class:`~repro.core.agent.Agent` daemons;
* each agent *compiles the rules into real eBPF bytecode*
  (:mod:`repro.core.compiler`), verifies and attaches the programs, and
  buffers the perf-event records in a kernel ring buffer
  (:mod:`repro.core.ringbuffer`, the mmap'd /proc buffer of §III-C);
* the :class:`~repro.core.collector.RawDataCollector` gathers batches
  into the :class:`~repro.core.tracedb.TraceDB` (the InfluxDB stand-in)
  and doubles as the heartbeat monitor;
* :mod:`repro.core.clocksync` estimates per-node clock skew with
  Cristian's algorithm so cross-machine latencies align;
* :mod:`repro.core.metrics` computes throughput, latency,
  decomposition, jitter, and loss from the stored records.

:class:`~repro.core.vnettracer.VNetTracer` wires it all together.
"""

from repro.core.config import (
    ActionSpec,
    ControlPackage,
    FilterRule,
    GlobalConfig,
    TracepointSpec,
    TracingSpec,
)
from repro.core.metrics import (
    decompose_latency,
    latency_between,
    packet_loss,
    throughput_at,
)
from repro.core.reports import CollectReport, DeployReport
from repro.core.tracedb import TraceDB
from repro.core.vnettracer import VNetTracer

__all__ = [
    "VNetTracer",
    "TracingSpec",
    "FilterRule",
    "TracepointSpec",
    "ActionSpec",
    "GlobalConfig",
    "ControlPackage",
    "DeployReport",
    "CollectReport",
    "TraceDB",
    "throughput_at",
    "latency_between",
    "decompose_latency",
    "packet_loss",
]
