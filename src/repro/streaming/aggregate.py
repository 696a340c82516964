"""The incremental aggregation engine over a TraceDB's appended rows.

A :class:`StreamingAggregator` reads one :class:`~repro.core.tracedb.TraceDB`
(:meth:`attach`) and folds in, on each :meth:`observe_ingest`, exactly
the rows ``TraceDB.insert_packed`` appended since the last call -- so
every record it sees was decoded, checked (``MalformedBatchError``)
and skew-aligned once, by the database.  Attached to a
``RawDataCollector``, it taps the collector's ingest **downstream of
the resequencer**: by the time ``RawDataCollector._apply`` calls it,
duplicates have been discarded via ``TraceDB.mark_batch`` and batches
arrive in strict per-node sequence order, so windows see exactly the
deduplicated, in-order record stream the database stores -- plus
explicit :meth:`observe_gap` notices when a shipment is abandoned
(``skip_shipment``).  Attached to a bare database, the caller calls
:meth:`observe_ingest` after each insert: ``macro_fleet``'s merge does
so for every per-shard blob.

The fold is *columnar*: :meth:`observe_ingest` picks up the freshly
appended column slices (a per-table cursor diff).  Ingest then runs on
whole slices with C-speed primitives -- ``bisect`` window segmentation
and ``sum``/``min``/``max`` slice reductions; an out-of-order slice is
sorted once first, so every slice takes the same path.  The one
first-occurrence index is the database's own ``first_ts`` (per table,
trace ID -> aligned timestamp of its first row).  A label that opens a
hop files the IDs ``first_ts`` gained in this call under their windows
-- the slice's own columns when every row was new, else the tail of
``first_ts`` -- and at window close each filed ID is looked up in the
sink table's ``first_ts``.  A pair counts iff the source's first
occurrence was on time and the sink's first occurrence is in the
database when the source window closes: the same set an eager
per-record join admits, without its per-record cost.

Everything is keyed by *aligned event time* (record timestamp + the
node's clock skew, read from the DB's already-aligned timestamp
column, so streaming and offline attribution can never diverge).
Window close is driven by a conservative watermark -- the minimum,
over every expected node, of the newest aligned timestamp seen
from that node, minus the allowed lateness -- so a slow shard can never
strand records as late.

Windows are tumbling, so every record and hop pair lands in exactly
one and the run-level merge (:meth:`summary`) reproduces the offline
metric kernels byte-for-byte (the differential suite closes every
window and compares canonical JSON against
``repro.streaming.reference``).
"""

from __future__ import annotations

import json
from array import array
from bisect import bisect_left, bisect_right
from itertools import islice
from operator import le as _le, lt as _lt
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.core.metrics import TRACE_ID_BYTES
from repro.core.tracedb import TraceDB
from repro.obs import contract as obs_contract
from repro.obs.registry import estimate_quantile
from repro.streaming.sketch import LATENCY_SKETCH_BUCKETS_NS
from repro.streaming.windows import DEFAULT_TOP_K, DEFAULT_WINDOW_NS, TopKSlowest, WindowFrame

_NEG = -(1 << 62)  # "no window closed yet" sentinel (below any real index)

_NO_BLOB_ENTRY = (
    "streaming folds no blobs: attach(db) the aggregator to a TraceDB and "
    "call observe_ingest(node) after each db.insert_packed(...)"
)


class StreamingError(ValueError):
    """Invalid streaming configuration or usage."""


class StreamingConfig(NamedTuple):
    """Everything a streaming aggregator needs, validated up front."""

    chain: Tuple[str, ...]
    window_ns: int = DEFAULT_WINDOW_NS
    allowed_lateness_ns: int = 0
    top_k: int = DEFAULT_TOP_K
    emit_interval_ns: Optional[int] = None

    def validate(self) -> None:
        if len(self.chain) < 2:
            raise StreamingError("streaming needs a chain of at least two tracepoints")
        if len(set(self.chain)) != len(self.chain):
            raise StreamingError(f"chain labels must be unique: {self.chain!r}")
        for name in ("window_ns", "allowed_lateness_ns", "top_k", "emit_interval_ns"):
            value = getattr(self, name)
            # ``type`` rather than ``isinstance``: a bool is an int too.
            if type(value) is not int and not (name == "emit_interval_ns" and value is None):
                raise StreamingError(f"{name} must be an int, got {value!r}")
        if self.window_ns <= 0:
            raise StreamingError(f"window_ns must be positive, got {self.window_ns}")
        if self.allowed_lateness_ns < 0:
            raise StreamingError(
                f"allowed_lateness_ns cannot be negative: {self.allowed_lateness_ns}"
            )
        if self.top_k < 1:
            raise StreamingError(f"top_k must be at least 1, got {self.top_k}")
        if self.emit_interval_ns is not None and self.emit_interval_ns <= 0:
            raise StreamingError(
                f"emit_interval_ns must be positive, got {self.emit_interval_ns}"
            )


def canonical_json(doc: object) -> str:
    """The byte-diffable form every streaming export uses."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _ascending(seq) -> bool:
    """True when ``seq`` is non-decreasing (C-speed pairwise check)."""
    return all(map(_le, seq, islice(seq, 1, None)))


def _strictly_ascending(seq) -> bool:
    """True when ``seq`` strictly increases (so: also duplicate-free)."""
    return all(map(_lt, seq, islice(seq, 1, None)))


class StreamingAggregator:
    """Tumbling-window aggregation in virtual event time."""

    def __init__(self, config: StreamingConfig, registry=None):
        config.validate()
        self.config = config
        self._window_ns = config.window_ns
        self._lateness = config.allowed_lateness_ns

        chain = tuple(config.chain)
        self._chain = chain
        hops = list(zip(chain, chain[1:]))
        if len(chain) > 2:
            hops.append((chain[0], chain[-1]))  # end-to-end
        self._hops = hops
        self._hop_keys = [f"{a}->{b}" for a, b in hops]
        self._e2e_idx = len(hops) - 1

        # Per source label, the hops it opens (index, sink label): the
        # deferred join consumed at close, against the sink table's
        # ``first_ts``.
        self._from_routes: Dict[str, List[Tuple[int, str]]] = {}
        for idx, (a, b) in enumerate(hops):
            self._from_routes.setdefault(a, []).append((idx, b))

        # Open-window state, keyed on the window index: per label
        # [n, payload, lo, hi, first-occurrence ts, their trace IDs].
        self._wtput: Dict[int, Dict[str, list]] = {}
        self._open: set = set()
        self._closed_upto = _NEG
        self._watermark: Optional[int] = None
        self._node_max: Dict[str, int] = {}

        # Run-level merged state.  Sketches accumulate as *insertion
        # points* (cumulative counts at each bucket edge) because those
        # merge by plain vector addition -- bucket counts are recovered
        # as differences at summary time.
        self._run_tput: Dict[str, list] = {}  # label -> [n, pay, lo, hi]
        self._hop_stats = [[0, 0, None, None] for _ in hops]  # [n, sum, lo, hi]
        self._hop_pts = [[0] * len(LATENCY_SKETCH_BUCKETS_NS) for _ in hops]
        self._jitter_stats = [[0, 0, None, None] for _ in hops]
        self._jitter_prev: List[Optional[int]] = [None] * len(hops)
        self.topk = TopKSlowest(config.top_k)

        self.frames: List[WindowFrame] = []
        self.snapshots: List[Dict[str, object]] = []
        self.records = 0
        self.late_records = 0
        self.gap_notices = 0
        self.windows_closed = 0
        self.sketch_merges = 0

        self._collector = None
        self._db = None
        self._cursors: Dict[str, int] = {}
        self._fseen: Dict[str, int] = {}
        self._expected_override: Optional[set] = None
        self._emit_timer = None
        self._emit_engine = None

        self._m_records = self._m_windows = self._m_late = None
        self._m_merges = self._m_evictions = self._m_open = self._m_wm = None
        if registry is not None:
            self._m_records = registry.register_spec(obs_contract.STREAM_RECORDS)
            self._m_windows = registry.register_spec(obs_contract.STREAM_WINDOWS_CLOSED)
            self._m_late = registry.register_spec(obs_contract.STREAM_LATE_OR_GAP)
            self._m_merges = registry.register_spec(obs_contract.STREAM_SKETCH_MERGES)
            self._m_evictions = registry.register_spec(
                obs_contract.STREAM_TOPK_EVICTIONS
            )
            self._m_open = registry.register_spec(obs_contract.STREAM_OPEN_WINDOWS)
            self._m_wm = registry.register_spec(obs_contract.STREAM_WATERMARK)
            self._m_open.set(0)

    # -- wiring ------------------------------------------------------------

    def attach(self, source) -> "StreamingAggregator":
        """Read a database's appended rows from here on: per-table
        cursors start at its current row counts, and each
        :meth:`observe_ingest` folds exactly the column slices
        ``insert_packed`` appended since -- timestamps already
        skew-aligned, labels already resolved.  ``source`` is a
        ``TraceDB`` (the caller then calls :meth:`observe_ingest` after
        each insert) or a ``RawDataCollector``: the aggregator then
        reads the collector's database, is its post-resequencer tap,
        and waits for the collector's agents before it closes a
        window."""
        collector = None if isinstance(source, TraceDB) else source
        db = source if collector is None else collector.db
        if self._db is not None and self._db is not db:
            raise StreamingError("aggregator is already attached to another database")
        self._db = db
        tables = db._tables.items()
        self._cursors = {label: len(table.timestamp_ns) for label, table in tables}
        self._fseen = {label: len(table.first_ts) for label, table in tables}
        if collector is not None:
            self._collector = collector
            collector.set_streaming_tap(self)
        return self

    def expect_nodes(self, names) -> None:
        """Override the watermark's expected-node set (the nodes a
        database-attached aggregator waits for; collector-attached ones
        default to the collector's agents)."""
        self._expected_override = set(names)

    def start_emitter(self, engine) -> None:
        """Schedule deterministic periodic snapshots on the engine, every
        ``emit_interval_ns`` (else every window), the live-emit path;
        snapshots carry only virtual-time state."""
        if self._emit_timer is not None:
            return
        interval = self.config.emit_interval_ns or self._window_ns
        self._emit_engine = engine
        self._emit_interval = interval
        self._emit_timer = engine.timer(interval, self._emit)

    def stop_emitter(self) -> None:
        if self._emit_timer is not None:
            self._emit_timer.cancel()
            self._emit_timer = None

    def _emit(self) -> None:
        self.snapshots.append(
            {
                "t_ns": self._emit_engine.now,
                "watermark_ns": self._watermark,
                "open_windows": len(self._open),
                "windows_closed": self.windows_closed,
                "records": self.records,
                "late_or_gaps": self.late_records + self.gap_notices,
            }
        )
        self._emit_timer = self._emit_engine.timer(self._emit_interval, self._emit)

    # -- ingest ------------------------------------------------------------

    def observe_ingest(self, node) -> None:
        """The one fold entry: fold in whatever the attached database
        appended since the last call (the collector tap calls it per
        applied batch).  Diffs the per-table cursors against current
        row counts, so one call per batch sees exactly that batch's
        rows -- as aligned, label-resolved column slices.  For a label
        that opens a hop it also diffs the table's ``first_ts`` length:
        the IDs that index gained are the call's new first occurrences,
        and when it grew by exactly the row delta they are the slice's
        own rows."""
        db = self._db
        if db is None:
            raise StreamingError(
                "observe_ingest before attach: attach(db) the aggregator to a "
                "TraceDB (or a RawDataCollector) first"
            )
        cursors = self._cursors
        fseen = self._fseen
        routes = self._from_routes
        segments = []
        for label, table in db._tables.items():
            stop = len(table.timestamp_ns)
            start = cursors.get(label, 0)
            if stop > start:
                cursors[label] = stop
                new = 0
                if label in routes:
                    nf = len(table.first_ts)
                    new = nf - fseen.get(label, 0)
                    fseen[label] = nf
                segments.append((label, table, start, stop, new))
        if segments:
            self._observe_segments(node, segments)

    def observe_batch(self, node, blob, labels=None, skew_ns=None) -> None:
        """Gone: streaming reads only the TraceDB (kept by name for the
        benchmark's layer table)."""
        raise StreamingError(_NO_BLOB_ENTRY)

    def observe_packed(self, node, blob, labels, skew_ns=0) -> None:
        """Gone, as :meth:`observe_batch`."""
        raise StreamingError(_NO_BLOB_ENTRY)

    def observe_gap(self, node, seq) -> None:
        """A ``skip_shipment`` gap notice: that sequence number will
        never arrive (docs/FAULTS.md)."""
        self.gap_notices += 1
        if self._m_late is not None:
            self._m_late.inc(1, ("gap",))

    def _observe_segments(self, node, segments) -> None:
        count, late = self._ingest_segments(node, segments)
        self.records += count
        if count and self._m_records is not None:
            self._m_records.inc(count, (node,))
        if late:
            self.late_records += late
            if self._m_late is not None:
                self._m_late.inc(late, ("late",))
        self._advance_watermark()

    def _ingest_segments(self, node, segments):
        """Ingest over per-label column slices, a slice at a time: an
        out-of-order slice is sorted once, then ``bisect`` finds window
        boundaries, each window's count/payload/min/max come from
        C-level slice reductions, and a source label files its new
        first occurrences, split by the same windows.  Returns the
        record and late-record counts."""
        window = self._window_ns
        bound = (self._closed_upto + 1) * window  # earlier ts = late
        wtput = self._wtput
        open_set = self._open
        overhead = TRACE_ID_BYTES
        node_max = self._node_max.get(node, _NEG)
        count = 0
        late = 0
        for label, table, start, stop, new in segments:
            n = stop - start
            count += n
            tss = table.timestamp_ns[start:stop]
            plens = table.packet_len[start:stop]
            ordered = _ascending(tss)
            if not ordered:
                rows = sorted(zip(tss, plens))
                tss = [row[0] for row in rows]
                plens = [row[1] for row in rows]
            if tss[-1] > node_max:
                node_max = tss[-1]
            # The first occurrences first_ts gained, ascending by time.
            if new == n and ordered:
                f_ts, f_tid = tss, table.trace_id[start:stop]
            elif new:
                firsts = sorted(
                    (ts, tid) for tid, ts in islice(reversed(table.first_ts.items()), new)
                )
                f_ts = [first[0] for first in firsts]
                f_tid = [first[1] for first in firsts]
            else:
                f_ts = f_tid = ()
            i = fi = 0
            if tss[0] < bound:
                i = bisect_left(tss, bound)
                late += i
                fi = bisect_left(f_ts, bound)
            while i < n:
                w = tss[i] // window
                end = (w + 1) * window
                j = bisect_left(tss, end, i)
                m = j - i
                seg_pl = plens[i:j]
                if min(seg_pl) > overhead:
                    payload = sum(seg_pl) - overhead * m
                else:
                    payload = sum(p - overhead for p in seg_pl if p > overhead)
                wt = wtput.get(w)
                if wt is None:
                    wt = wtput[w] = {}
                    open_set.add(w)
                acc = wt.get(label)
                if acc is None:
                    acc = wt[label] = [0, 0, tss[i], tss[j - 1], array("q"), array("q")]
                else:
                    if tss[i] < acc[2]:
                        acc[2] = tss[i]
                    if tss[j - 1] > acc[3]:
                        acc[3] = tss[j - 1]
                acc[0] += m
                acc[1] += payload
                if f_ts:
                    fj = bisect_left(f_ts, end, fi)
                    acc[4].extend(f_ts[fi:fj])
                    acc[5].extend(f_tid[fi:fj])
                    fi = fj
                i = j
        if count:
            self._node_max[node] = node_max
        return count, late

    # -- watermark / window close ------------------------------------------

    def _expected_nodes(self) -> Optional[set]:
        if self._expected_override is not None:
            return self._expected_override
        if self._collector is not None:
            return set(self._collector.agents)
        return None  # nothing to wait for: only close_all() closes windows

    def _advance_watermark(self) -> None:
        expected = self._expected_nodes()
        if not expected:
            return
        node_max = self._node_max
        for name in expected:
            if name not in node_max:
                return  # conservative: wait until every node reported
        wm = min(node_max.values()) - self._lateness
        if self._watermark is not None and wm <= self._watermark:
            return
        self._watermark = wm
        if self._m_wm is not None:
            self._m_wm.set(wm)
        open_set = self._open
        window = self._window_ns
        while open_set:
            w = min(open_set)
            if (w + 1) * window > wm:
                break
            self._close_window(w)

    def close_all(self) -> None:
        """End of run: close every remaining window, in order."""
        while self._open:
            self._close_window(min(self._open))
        self.stop_emitter()

    def _consume_pairs(self, wt) -> Dict[int, object]:
        """The deferred hop join for a closing window: every source
        first occurrence filed under it is looked up in the sink
        table's ``first_ts``.  A strictly ascending, fully matched
        window returns the ``(from_ts, lats, tids)`` column triple,
        already in canonical order; anything else returns the matched
        IDs as sorted ``(from_ts, lat, tid)`` tuples."""
        wp: Dict[int, object] = {}
        tables = self._db._tables
        for label, routes in self._from_routes.items():
            acc = wt.get(label)
            if acc is None or not acc[4]:
                continue
            take_ts, take_tid = acc[4], acc[5]
            ordered = _strictly_ascending(take_ts)
            for hop_idx, sink in routes:
                table = tables.get(sink)
                if table is None:
                    continue
                mates = list(map(table.first_ts.get, take_tid))
                if ordered and None not in mates:
                    wp[hop_idx] = (take_ts, list(map(int.__sub__, mates, take_ts)), take_tid)
                    continue
                pairs = sorted(
                    (ts, mate - ts, tid)
                    for ts, mate, tid in zip(take_ts, mates, take_tid)
                    if mate is not None
                )
                if pairs:
                    wp[hop_idx] = pairs
        return wp

    def _close_window(self, w: int) -> None:
        wt = self._wtput.pop(w, {})
        self._open.discard(w)
        if w > self._closed_upto:
            self._closed_upto = w
        start = w * self._window_ns
        end = start + self._window_ns
        wp = self._consume_pairs(wt)

        records = 0
        tput_frame: Dict[str, Dict[str, int]] = {}
        for label, acc in wt.items():
            records += acc[0]
            tput_frame[label] = {
                "records": acc[0],
                "payload_bytes": acc[1],
                "min_ts_ns": acc[2],
                "max_ts_ns": acc[3],
            }
            run = self._run_tput.get(label)
            if run is None:
                self._run_tput[label] = [acc[0], acc[1], acc[2], acc[3]]
            else:
                run[0] += acc[0]
                run[1] += acc[1]
                if acc[2] < run[2]:
                    run[2] = acc[2]
                if acc[3] > run[3]:
                    run[3] = acc[3]

        hops_frame: Dict[str, Dict[str, object]] = {}
        bounds = LATENCY_SKETCH_BUCKETS_NS
        for hop_idx, key in enumerate(self._hop_keys):
            data = wp.get(hop_idx)
            if data is None:
                continue
            if type(data) is tuple:  # columnar, already canonical order
                lats = data[1]
                neg_ids = map(int.__neg__, data[2])
            else:  # sorted (from_ts, lat, tid) tuples
                lats = [pair[1] for pair in data]
                neg_ids = map(int.__neg__, (pair[2] for pair in data))
            count = len(lats)
            lat_sum = sum(lats)
            ascending = sorted(lats)
            # The window sketch, as one bisect per bucket edge: the
            # insertion points are cumulative counts, bucket counts are
            # their differences (the "<= upper edge" rule of
            # StreamSketch.observe, without a per-value loop).
            pts = [bisect_right(ascending, bound) for bound in bounds]
            counts = [pts[0]]
            counts += map(int.__sub__, pts[1:], pts[:-1])
            counts.append(count - pts[-1])
            hops_frame[key] = {
                "count": count,
                "sum_ns": lat_sum,
                "min_ns": ascending[0],
                "max_ns": ascending[-1],
                "jitter_count": count - 1,
                # Consecutive deltas telescope to last - first.
                "jitter_sum_ns": lats[-1] - lats[0],
                "sketch": counts,
            }
            stats = self._hop_stats[hop_idx]
            stats[0] += count
            stats[1] += lat_sum
            if stats[2] is None or ascending[0] < stats[2]:
                stats[2] = ascending[0]
            if stats[3] is None or ascending[-1] > stats[3]:
                stats[3] = ascending[-1]
            # Jitter bridges window boundaries: the offline kernel
            # differences one global latency sequence, so the first
            # latency of this window pairs with the last of the
            # previous (windows always close in ascending order).
            prev = self._jitter_prev[hop_idx]
            deltas = list(map(int.__sub__, lats[1:], lats[:-1]))
            if prev is not None:
                deltas.append(lats[0] - prev)  # the cross-window bridge
            if deltas:
                jstats = self._jitter_stats[hop_idx]
                jstats[0] += len(deltas)
                # Consecutive deltas telescope: their sum is just the
                # endpoints (last latency minus the bridge's origin).
                jstats[1] += lats[-1] - (lats[0] if prev is None else prev)
                dlo, dhi = min(deltas), max(deltas)
                if jstats[2] is None or dlo < jstats[2]:
                    jstats[2] = dlo
                if jstats[3] is None or dhi > jstats[3]:
                    jstats[3] = dhi
            self._jitter_prev[hop_idx] = lats[-1]
            # Fold the window sketch into the run-level one: insertion
            # points add (exact; docs/STREAMING.md).
            self._hop_pts[hop_idx] = list(
                map(int.__add__, self._hop_pts[hop_idx], pts)
            )
            self.sketch_merges += 1
            if self._m_merges is not None:
                self._m_merges.inc()
            if hop_idx == self._e2e_idx:
                evicted = self.topk.extend(zip(lats, neg_ids), count)
                if evicted and self._m_evictions is not None:
                    self._m_evictions.inc(evicted)

        self.frames.append(
            WindowFrame(
                index=w,
                start_ns=start,
                end_ns=end,
                records=records,
                throughput=tput_frame,
                hops=hops_frame,
            )
        )
        self.windows_closed += 1
        if self._m_windows is not None:
            self._m_windows.inc()
        if self._m_open is not None:
            self._m_open.set(len(self._open))

    # -- results -----------------------------------------------------------

    @property
    def watermark_ns(self) -> Optional[int]:
        return self._watermark

    def open_windows(self) -> int:
        return len(self._open)

    def frames_as_dicts(self) -> List[Dict[str, object]]:
        return [frame.as_dict() for frame in self.frames]

    def summary(self) -> Dict[str, object]:
        """Run-level merge of every *closed* window -- byte-for-byte
        the offline TraceDB/metric-kernel answers once all windows are
        closed (the differential suite proves it)."""
        throughput: Dict[str, Dict[str, object]] = {}
        for label, acc in self._run_tput.items():
            n, payload, lo, hi = acc
            # Exactly throughput_at's rules: <2 packets or a zero-width
            # window cannot define a rate.
            if n < 2:
                entry = {"bits_per_second": 0.0, "packets": n,
                         "payload_bytes": 0, "window_ns": 0}
            else:
                window = hi - lo
                if window <= 0:
                    entry = {"bits_per_second": 0.0, "packets": n,
                             "payload_bytes": payload, "window_ns": 0}
                else:
                    entry = {"bits_per_second": payload * 8 * 1e9 / window,
                             "packets": n, "payload_bytes": payload,
                             "window_ns": window}
            throughput[label] = entry
        hops: Dict[str, Dict[str, object]] = {}
        jitter: Dict[str, Dict[str, object]] = {}
        for idx, key in enumerate(self._hop_keys):
            n, total, lo, hi = self._hop_stats[idx]
            pts = self._hop_pts[idx]
            counts = [pts[0]]
            counts += map(int.__sub__, pts[1:], pts[:-1])
            counts.append(n - pts[-1])
            hops[key] = {
                "count": n,
                "sum_ns": total,
                "min_ns": lo,
                "max_ns": hi,
                "sketch": counts,
                "p50_ns": estimate_quantile(LATENCY_SKETCH_BUCKETS_NS, counts, 0.5),
                "p99_ns": estimate_quantile(LATENCY_SKETCH_BUCKETS_NS, counts, 0.99),
            }
            jn, jtotal, jlo, jhi = self._jitter_stats[idx]
            jitter[key] = {"count": jn, "sum_ns": jtotal, "min_ns": jlo, "max_ns": jhi}
        return {
            "config": {
                "chain": list(self._chain),
                "window_ns": self._window_ns,
                "allowed_lateness_ns": self._lateness,
                "top_k": self.config.top_k,
            },
            "records": self.records,
            "windows_closed": self.windows_closed,
            "late_records": self.late_records,
            "gap_notices": self.gap_notices,
            "throughput": throughput,
            "hops": hops,
            "jitter": jitter,
            "top_k_slowest": [
                {"trace_id": tid, "latency_ns": lat} for tid, lat in self.topk.items()
            ],
        }

    def summary_json(self) -> str:
        return canonical_json(self.summary())

    def __repr__(self) -> str:
        return (
            f"<StreamingAggregator records={self.records} "
            f"open={len(self._open)} closed={self.windows_closed}>"
        )
