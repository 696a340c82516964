"""Cristian's-algorithm accuracy (§III-B, Fig. 4).

Measures how close the estimated skew between the master and a
monitored node comes to the configured ground truth, across clock
offsets/drifts and with background load on the link (the min-of-100
filter is what defends against interference).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List

from repro.core.clocksync import ClockSynchronizer
from repro.experiments.topologies import build_two_host_kvm
from repro.workloads.iperf import IperfUDPClient, IperfUDPServer


@dataclass
class ClockSyncResult:
    configured_offset_ns: int
    configured_drift_ppm: float
    true_skew_ns: int  # ground truth at estimation time (master - node)
    estimated_skew_ns: int
    error_ns: int
    one_way_ns: int
    rtt_min_ns: int
    samples: int
    background_load: bool


def run_clock_sync(
    offset_ns: int = 1_500_000,
    drift_ppm: float = 20.0,
    samples: int = 100,
    background_load: bool = False,
    seed: int = 7,
) -> ClockSyncResult:
    """One estimation run between host1 (master) and host2."""
    scene = build_two_host_kvm(
        seed=seed, clock_offset2_ns=offset_ns, clock_drift2_ppm=drift_ppm
    )
    engine = scene.engine

    if background_load:
        # Bulk VM-to-VM traffic sharing the same physical link.
        server = IperfUDPServer(scene.vm2.node, scene.vm2_ip, cpu_index=2)
        client = IperfUDPClient(
            scene.vm1.node, scene.vm1_ip, scene.vm2_ip, rate_pps=25_000, cpu_index=2
        )
        client.start(250_000_000)

    sync = ClockSynchronizer(
        scene.host1.node,
        scene.host1_ip,
        "dev:eth0",
        scene.host2.node,
        scene.host2_ip,
        "dev:eth0",
        samples=samples,
    )
    done: List[ClockSyncResult] = []

    def on_done(estimate) -> None:
        true_skew = scene.host1.clock.monotonic_ns() - scene.host2.clock.monotonic_ns()
        done.append(
            ClockSyncResult(
                configured_offset_ns=offset_ns,
                configured_drift_ppm=drift_ppm,
                true_skew_ns=true_skew,
                estimated_skew_ns=estimate.skew_ns,
                error_ns=abs(estimate.skew_ns - true_skew),
                one_way_ns=estimate.one_way_ns,
                rtt_min_ns=estimate.rtt_min_ns,
                samples=estimate.samples,
                background_load=background_load,
            )
        )

    sync.on_done = on_done
    sync.start()
    engine.run(until=300_000_000)
    if not done:
        raise RuntimeError("clock sync did not complete")
    return done[0]


def run_fig4_sweep(seed: int = 7) -> List[ClockSyncResult]:
    """Offsets/drifts, idle and loaded."""
    results = []
    for offset_ns, drift_ppm in ((0, 0.0), (1_500_000, 20.0), (-4_000_000, -35.0)):
        for load in (False, True):
            results.append(
                run_clock_sync(
                    offset_ns=offset_ns,
                    drift_ppm=drift_ppm,
                    background_load=load,
                    seed=seed,
                )
            )
    return results


def present_fig4(results: List[ClockSyncResult]) -> Iterator[str]:
    for r in results:
        load = "loaded" if r.background_load else "idle"
        yield (
            f"  offset {r.configured_offset_ns / 1e6:+7.1f} ms, "
            f"drift {r.configured_drift_ppm:+5.0f} ppm, {load:6s}: "
            f"true {r.true_skew_ns} ns, est {r.estimated_skew_ns} ns, "
            f"err {r.error_ns} ns"
        )
