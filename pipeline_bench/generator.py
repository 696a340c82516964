"""Seeded input for the ``analysis_replay`` workload.

Builds, from a seed alone, the shipment stream a three-node deployment
would have sent to the collector: packed 24-byte records
(``TraceRecord.pack``) for ``traces`` packets crossing five tracepoints
on three nodes, cut into per-node shipments of ``TRACES_PER_SHIPMENT``
traces.  The stream carries the faults the collector, the database and
the analysis layers must absorb:

* seeded per-hop jitter, with a rare 5x spike so the anomaly detector
  has something to flag and a few column slices lose monotonicity;
* 2 % of traces are incomplete (the packet never reached the receiver);
* every 10th shipment window is delivered twice (the dedup path);
* every 20th pair of windows is delivered out of sequence order (the
  resequencer's hold path);
* the receiver's clock runs 1.5 ms ahead, so its rows are aligned at
  insert time with a -1.5 ms skew;
* three of every four traces name a parent trace (RPC links).

The program under test only ever sees the returned blobs, labels,
skews and links -- never the seed.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, List, NamedTuple, Tuple

from repro.core.records import TraceRecord

TRACES_PER_SHIPMENT = 150
DUPLICATE_EVERY = 10
SWAP_EVERY = 20
INCOMPLETE_SHARE = 0.02
SPIKE_SHARE = 0.005
RX_SKEW_NS = -1_500_000
TRACE_SPACING_NS = 40_000

# (node, tracepoint id, label) in path order.
TRACEPOINTS = (
    ("tx", 1, "tx:send"),
    ("tx", 2, "tx:nic-out"),
    ("mid", 3, "mid:switch"),
    ("rx", 4, "rx:nic-in"),
    ("rx", 5, "rx:deliver"),
)
NODES = ("tx", "mid", "rx")
CHAIN = tuple(label for _, _, label in TRACEPOINTS)
LABELS = {tp_id: label for _, tp_id, label in TRACEPOINTS}
_HOP_NS = (9_000, 14_000, 13_000, 9_500)


class ReplayInput(NamedTuple):
    """Everything the replay feeds the collector, in delivery order."""

    deliveries: List[Tuple[str, int, bytes]]  # (node, shipment seq, blob)
    windows: int  # distinct shipment windows (= query-round clock)
    links: Dict[int, Tuple[int, ...]]  # child trace -> parent traces
    traces: int
    records: int  # distinct records (duplicated deliveries not counted)
    incomplete_traces: int
    duplicate_deliveries: int
    sha256: str  # over every delivered blob, in delivery order


def generate(seed: int, traces: int) -> ReplayInput:
    """The replay input for ``traces`` packets; a pure function of its
    arguments."""
    rng = random.Random(seed)
    windows = -(-traces // TRACES_PER_SHIPMENT)
    per_window: List[Dict[str, bytes]] = []
    records = incomplete = 0
    for window in range(windows):
        first = window * TRACES_PER_SHIPMENT + 1
        last = min(first + TRACES_PER_SHIPMENT, traces + 1)
        blobs = {node: bytearray() for node in NODES}
        for trace_id in range(first, last):
            ts = 1_000_000 + trace_id * TRACE_SPACING_NS
            packet_len = rng.randrange(64, 1501)
            cpu = trace_id % 4
            lost = rng.random() < INCOMPLETE_SHARE
            incomplete += lost
            for index, (node, tp_id, _label) in enumerate(TRACEPOINTS):
                if index:
                    hop = _HOP_NS[index - 1]
                    hop += rng.randrange(-hop // 4, hop // 4 + 1)
                    if rng.random() < SPIKE_SHARE:
                        hop *= 5
                    ts += hop
                if lost and node == "rx":
                    continue
                raw = ts - RX_SKEW_NS if node == "rx" else ts
                blobs[node] += TraceRecord(trace_id, tp_id, raw, packet_len, cpu).pack()
                records += 1
        per_window.append({node: bytes(blob) for node, blob in blobs.items()})

    order = list(range(windows))
    for window in range(SWAP_EVERY - 1, windows - 1, SWAP_EVERY):
        order[window], order[window + 1] = order[window + 1], order[window]
    deliveries: List[Tuple[str, int, bytes]] = []
    duplicates = 0
    for window in order:
        for node in NODES:
            blob = per_window[window][node]
            if not blob:
                continue
            deliveries.append((node, window + 1, blob))
            if window % DUPLICATE_EVERY == DUPLICATE_EVERY - 1:
                deliveries.append((node, window + 1, blob))
                duplicates += 1

    # Groups of four: the first is a root request, two call it, and the
    # fourth is called by the second (depth two, so the rpc forest has
    # both fan-out and nesting to assemble).
    links: Dict[int, Tuple[int, ...]] = {}
    for trace_id in range(1, traces + 1):
        slot = (trace_id - 1) % 4
        if slot:
            parent = trace_id - slot if slot < 3 else trace_id - 2
            links[trace_id] = (parent,)

    digest = hashlib.sha256()
    for node, seq, blob in deliveries:
        digest.update(f"{node}:{seq}:".encode())
        digest.update(blob)
    return ReplayInput(
        deliveries=deliveries,
        windows=windows,
        links=links,
        traces=traces,
        records=records,
        incomplete_traces=incomplete,
        duplicate_deliveries=duplicates,
        sha256=digest.hexdigest(),
    )
