"""Benchmark applications from the paper's evaluation.

* :mod:`repro.workloads.sockperf` -- UDP latency (ping-pong and
  under-load modes), the paper's primary latency probe.
* :mod:`repro.workloads.iperf` -- the bulk UDP traffic generator used
  to congest the OVS data path.
* :mod:`repro.workloads.netperf` -- TCP/UDP stream throughput
  measurement (Fig. 7b, Fig. 12b).
* :mod:`repro.workloads.memcached` -- the CloudSuite Data Caching
  stand-in: a memcached-style server plus a fixed-rate GET/SET client
  (Fig. 10b).
* :mod:`repro.workloads.stats` -- latency/throughput summaries.
"""

from repro.workloads.iperf import IperfUDPClient, IperfUDPServer
from repro.workloads.memcached import DataCachingClient, MemcachedServer
from repro.workloads.netperf import NetperfClient, NetperfServer
from repro.workloads.sockperf import SockperfClient, SockperfServer
from repro.workloads.stats import LatencySummary, summarize_latencies

__all__ = [
    "SockperfClient",
    "SockperfServer",
    "IperfUDPClient",
    "IperfUDPServer",
    "NetperfClient",
    "NetperfServer",
    "MemcachedServer",
    "DataCachingClient",
    "LatencySummary",
    "summarize_latencies",
]
