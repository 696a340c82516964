"""The incremental aggregation engine over packed-blob shipments.

A :class:`StreamingAggregator` subscribes to the collector's ingest
path (:meth:`attach`), **downstream of the resequencer**: by the time
``RawDataCollector._apply`` taps it, duplicates have been discarded via
``TraceDB.mark_batch`` and batches arrive in strict per-node sequence
order, so windows see exactly the deduplicated, in-order record stream
the database stores -- plus explicit :meth:`observe_gap` notices when a
shipment is abandoned (``skip_shipment``).  It can also run standalone
(no collector) for merge paths like ``macro_fleet``, where per-shard
blobs are replayed through :meth:`observe_batch` directly.

The attached tap is *columnar*: the collector bulk-decodes each blob
straight into the TraceDB's per-label column arrays, and
:meth:`observe_ingest` picks up exactly the freshly appended slices (a
per-table cursor diff), so the aggregator never re-unpacks a record the
database already decoded.  Ingest then runs on whole slices with
C-speed primitives -- ``bisect`` window segmentation and
``sum``/``min``/``max`` slice reductions for throughput, and per-label
*first-occurrence streams* for hop matching: as long as a label's
trace IDs arrive strictly ascending (ring-buffer order in, strict
resequencing through -- the steady state here), first-occurrence
extraction is two plain list extends, with no per-record or per-entry
dict work at all.  Hop-pair matching is deferred to window close,
where the source window's ID slice is compared against the sink
stream's next positional slice: one C-level list equality and one
``map(sub)`` latency pass when the streams align.  The first duplicate,
reordered, or missing ID flips the label (and any hop sinking at it)
into *dict mode* -- the classic first-occurrence hash join -- which is
slower but handles every fault the collector can surface.  Either way
a pair counts iff both sides arrived before the source window closed
(watermark + allowed lateness): the same set an eager per-record join
admits, without its per-record cost.

Everything is keyed by *aligned event time* (record timestamp + the
node's clock skew; the attached tap reads the DB's already-aligned
timestamp column, so streaming and offline attribution can never
diverge).  Window close is driven by a conservative watermark -- the
minimum, over every expected node, of the newest aligned timestamp seen
from that node, minus the allowed lateness -- so a slow shard can never
strand records as late.  Non-monotone slices fall back to a per-record
loop; a duplicate trace ID keeps its first-*arrival* timestamp,
mirroring the database's ``first_ts_at``.

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

from repro.core.records import RECORD_STRUCT
from repro.core.metrics import TRACE_ID_BYTES
from repro.obs import contract as obs_contract
from repro.obs.registry import estimate_quantile
from repro.streaming.sketch import LATENCY_SKETCH_BUCKETS_NS
from repro.streaming.windows import TopKSlowest, WindowFrame

DEFAULT_WINDOW_NS = 100_000_000
DEFAULT_TOP_K = 8

_NEG = -(1 << 62)  # "no window closed yet" sentinel (below any real index)


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


class _LabelState:
    """One chain label's first-occurrence stream, in arrival order.

    ``f_ts``/``f_tid`` are parallel append-only ``array('q')`` columns
    -- one entry per *new* trace ID, timestamped with its first-arrival
    aligned time (the database's ``first_ts_at`` rule); arrays keep
    extends and slice comparisons at memcpy speed instead of boxing
    every 64-bit value.  ``done`` is the from-side close cursor:
    entries before it were consumed by a closed window (cursor, not
    deletion, so positional sink cursors into the same columns stay
    valid).  ``fdict`` is ``None`` while the stream has only ever seen
    strictly ascending IDs (fast mode: appends need no dedup); the
    first duplicate/reordered/zero ID materializes it and the label
    folds through the dict from then on.  ``dirty`` flags a timestamp
    regression in the unconsumed suffix (close re-sorts before
    slicing); ``ties`` flags that two entries may share a timestamp,
    which forces the sorted-tuple pair order on the close path.
    """

    __slots__ = ("f_ts", "f_tid", "last_tid", "fdict", "done", "dirty", "ties")

    def __init__(self):
        self.f_ts = array("q")
        self.f_tid = array("q")
        self.last_tid = 0  # zero doubles as the untraced-filler ID
        self.fdict: Optional[Dict[int, int]] = None
        self.done = 0
        self.dirty = False
        self.ties = False


class StreamingAggregator:
    """Tumbling-window aggregation in virtual event time."""

    def __init__(self, config: StreamingConfig, registry=None):
        config.validate()
        self.config = config
        self._window_ns = config.window_ns
        self._lateness = config.allowed_lateness_ns

        chain = tuple(config.chain)
        self._chain = chain
        self._chain_set = frozenset(chain)
        hops = list(zip(chain, chain[1:]))
        if len(chain) > 2:
            hops.append((chain[0], chain[-1]))  # end-to-end
        self._hops = hops
        self._hop_keys = [f"{a}->{b}" for a, b in hops]
        self._e2e_idx = len(hops) - 1

        # Matching state: per-label first-occurrence streams, and per
        # source label the hops it opens (index + the sink side's
        # stream) -- the deferred join consumed at close.  Per-hop
        # positional cursors/flags live in parallel lists.
        self._fstate: Dict[str, _LabelState] = {label: _LabelState() for label in chain}
        self._from_routes: Dict[str, List[Tuple[int, _LabelState]]] = {}
        for idx, (a, b) in enumerate(hops):
            self._from_routes.setdefault(a, []).append((idx, self._fstate[b]))
        self._hop_pos = [0] * len(hops)  # next unmatched sink entry
        self._hop_dict = [False] * len(hops)  # True = hash-join fallback

        # Open-window state, keyed on the window index.
        self._wtput: Dict[int, Dict[str, list]] = {}  # w -> label -> [n,pay,lo,hi]
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
        self._labels: Dict[int, str] = {}
        self._skew_of = lambda node: 0
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

    def attach(self, collector) -> "StreamingAggregator":
        """Subscribe to a collector's post-resequencer ingest.  The tap
        is columnar: per-table cursors start at the database's current
        row counts, and each applied batch hands over exactly the
        column slices ``insert_packed`` just appended -- timestamps
        already skew-aligned, labels already resolved."""
        if self._collector is not None and self._collector is not collector:
            raise StreamingError("aggregator is already attached to a collector")
        self._collector = collector
        self._db = collector.db
        self._cursors = {
            label: len(table.timestamp_ns)
            for label, table in collector.db._tables.items()
        }
        self._fseen = {
            label: len(table.first_ts)
            for label, table in collector.db._tables.items()
        }
        self._labels = collector._labels
        self._skew_of = collector.db.clock_skew
        collector.set_streaming_tap(self)
        return self

    def expect_nodes(self, names) -> None:
        """Override the watermark's expected-node set (standalone use;
        attached aggregators default to the collector's agents)."""
        self._expected_override = set(names)

    def start_emitter(self, engine, interval_ns: Optional[int] = None) -> None:
        """Schedule deterministic periodic snapshots on the engine (the
        live-emit path; snapshots carry only virtual-time state)."""
        if self._emit_timer is not None:
            return
        interval = interval_ns or self.config.emit_interval_ns or self._window_ns
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
        """Collector tap: fold in whatever the database just appended.
        Diffs the per-table cursors against current row counts, so one
        call per applied batch sees exactly that batch's rows -- as
        aligned, label-resolved column slices.  The table's
        ``first_ts`` index (maintained first-wins on the shared
        insert path) doubles as a free freshness oracle: when its
        length grew by exactly the row delta, every ID in the slice is
        truthy, globally new, and in-slice unique -- the fold needs no
        per-element scan at all."""
        cursors = self._cursors
        fseen = self._fseen
        chain_set = self._chain_set
        segments = []
        for label, table in self._db._tables.items():
            column = table.timestamp_ns
            n = len(column)
            seen = cursors.get(label, 0)
            if n > seen:
                cursors[label] = n
                if label in chain_set:
                    nf = len(table.first_ts)
                    fresh = nf - fseen.get(label, 0) == n - seen
                    fseen[label] = nf
                    tids = table.trace_id[seen:n]
                else:
                    fresh = False
                    tids = None
                segments.append(
                    (label, tids, column[seen:n], table.packet_len[seen:n], fresh)
                )
        if segments:
            self._observe_segments(node, segments)

    def observe_batch(self, node, blob, labels=None, skew_ns=None) -> None:
        """Standalone entry: fold one packed shipment blob in.
        ``labels`` and ``skew_ns`` default to the attached collector's
        state.  (An attached collector feeds the aggregator through
        :meth:`observe_ingest` instead; don't mix the two for the same
        records.)"""
        if labels is None:
            labels = self._labels
        skew = skew_ns if skew_ns is not None else self._skew_of(node)
        groups: Dict[int, Tuple[list, list, list]] = {}
        for tid, tp, ts, plen, _cpu in RECORD_STRUCT.iter_unpack(blob):
            group = groups.get(tp)
            if group is None:
                group = groups[tp] = ([], [], [])
            group[0].append(tid)
            group[1].append(ts + skew)
            group[2].append(plen)
        labels_get = labels.get
        segments = [
            (labels_get(tp) or f"tracepoint-{tp}", tids, tss, plens, None)
            for tp, (tids, tss, plens) in groups.items()
        ]
        if segments:
            self._observe_segments(node, segments)

    def observe_packed(self, node, blob, labels, skew_ns=0) -> None:
        """:meth:`observe_batch` with explicit labels and skew (merge
        paths with no collector attached)."""
        self.observe_batch(node, blob, labels=labels, skew_ns=skew_ns)

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
        """Ingest over per-label column slices, a slice at a time:
        ``bisect`` finds window boundaries (per-node slices are
        timestamp-monotone), each window's count/payload/min/max come
        from C-level slice reductions, and first-occurrences fold in
        through :meth:`_fold` (two list extends in the steady state)."""
        window = self._window_ns
        bound = (self._closed_upto + 1) * window  # earlier ts = late
        wtput = self._wtput
        open_set = self._open
        overhead = TRACE_ID_BYTES
        node_max = self._node_max.get(node, _NEG)
        count = 0
        late = 0
        for label, tids, tss, plens, fresh in segments:
            n = len(tss)
            if not n:
                continue
            count += n
            # One strict pass covers both questions: strictly ascending
            # implies monotone with no in-slice timestamp ties; only the
            # tied case pays for the second (non-strict) check.
            strict_ts = _strictly_ascending(tss)
            if not strict_ts and (tss[0] > tss[-1] or not _ascending(tss)):
                late += self._ingest_segment_slow(label, tids, tss, plens)
                peak = max(tss)
                if peak > node_max:
                    node_max = peak
                continue
            if tss[-1] > node_max:
                node_max = tss[-1]
            i = 0
            if tss[0] < bound:
                i = bisect_left(tss, bound)
                late += i
                if i == n:
                    continue
            if label in self._chain_set:
                # A suffix of an all-fresh slice is still all-fresh.
                self._fold(
                    label,
                    tids if i == 0 else tids[i:],
                    tss if i == 0 else tss[i:],
                    strict_ts,
                    fresh,
                )
            while i < n:
                w = tss[i] // window
                j = bisect_left(tss, (w + 1) * window, i)
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
                    wt[label] = [m, payload, tss[i], tss[j - 1]]
                else:
                    acc[0] += m
                    acc[1] += payload
                    if tss[i] < acc[2]:
                        acc[2] = tss[i]
                    if tss[j - 1] > acc[3]:
                        acc[3] = tss[j - 1]
                i = j
        if count:
            self._node_max[node] = node_max
        return count, late

    def _fold(self, label, tids, tss, strict_ts: bool, fresh=None) -> None:
        """Append a slice's first-occurrences to the label's stream.

        Steady state: the slice *is* its own first-occurrence set, so
        the fold is two C-level extends.  An attached tap proves that
        in O(1) (``fresh`` is the ``first_ts`` length-delta
        verdict from :meth:`observe_ingest`); a standalone fold
        (``fresh=None``) proves it with a strictly-ascending ID scan.
        Otherwise the label drops to dict mode for good:
        first-arrival-wins via a reversed ``dict(zip(...))`` sweep,
        exactly the eager per-record rule.  ``strict_ts`` is the
        caller's no-timestamp-ties verdict for the slice; anything
        weaker marks the label tied (sorted-tuple order at close)."""
        st = self._fstate[label]
        fdict = st.fdict
        if fdict is None:
            if (
                fresh
                if fresh is not None
                else tids[0] > st.last_tid and _strictly_ascending(tids)
            ):
                f_ts = st.f_ts
                if f_ts:
                    head = tss[0]
                    tail = f_ts[-1]
                    if head < tail:
                        st.dirty = True  # cross-batch timestamp regression
                    elif head == tail:
                        st.ties = True
                if not strict_ts:
                    st.ties = True
                f_ts.extend(tss)
                st.f_tid.extend(tids)
                st.last_tid = tids[-1]
                return
            fdict = st.fdict = dict(zip(st.f_tid, st.f_ts))
        st.ties = True  # dict mode: don't chase tie-freedom, just sort
        fresh = dict(zip(reversed(tids), reversed(tss)))
        if 0 in fresh:
            del fresh[0]  # zero = untraced filler records
        if not fresh:
            return
        stale = fresh.keys() & fdict.keys()
        if stale:
            for tid in stale:
                del fresh[tid]
            if not fresh:
                return
        fdict.update(fresh)
        f_ts = st.f_ts
        tail = f_ts[-1] if f_ts else _NEG
        appended = list(reversed(fresh.values()))
        st.f_tid.extend(reversed(fresh.keys()))
        f_ts.extend(appended)
        # An in-slice duplicate can leave the winning timestamp out of
        # place; flag the label so close re-sorts before slicing.
        if appended[0] < tail or not _ascending(appended):
            st.dirty = True

    def _ingest_segment_slow(self, label, tids, tss, plens) -> int:
        """Per-record fallback for a non-monotone slice (out-of-order
        source).  Preserves arrival-order first-occurrence semantics;
        returns the late-record count."""
        window = self._window_ns
        closed = self._closed_upto
        wtput = self._wtput
        overhead = TRACE_ID_BYTES
        st = self._fstate.get(label)
        fdict = None
        if st is not None:
            st.ties = True  # arbitrary order: be conservative at close
            fdict = st.fdict
            if fdict is None:  # dict mode from here on
                fdict = st.fdict = dict(zip(st.f_tid, st.f_ts))
        late = 0
        dirty = False
        for k in range(len(tss)):
            ts = tss[k]
            w = ts // window
            if w <= closed:
                late += 1
                continue
            wt = wtput.get(w)
            if wt is None:
                wt = wtput[w] = {}
                self._open.add(w)
            plen = plens[k]
            acc = wt.get(label)
            if acc is None:
                wt[label] = [1, plen - overhead if plen > overhead else 0, ts, ts]
            else:
                acc[0] += 1
                if plen > overhead:
                    acc[1] += plen - overhead
                if ts < acc[2]:
                    acc[2] = ts
                elif ts > acc[3]:
                    acc[3] = ts
            if fdict is not None:
                tid = tids[k]
                if tid and tid not in fdict:
                    fdict[tid] = ts
                    st.f_ts.append(ts)
                    st.f_tid.append(tid)
                    dirty = True
        if dirty:
            st.dirty = True
        return late

    # -- watermark / window close ------------------------------------------

    def _expected_nodes(self) -> Optional[set]:
        if self._expected_override is not None:
            return self._expected_override
        if self._collector is not None:
            return set(self._collector.agents)
        return None  # standalone: only close_all() closes windows

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

    def _resort(self, label: str, st: _LabelState) -> None:
        """Re-sort a from-label's unconsumed suffix after a timestamp
        regression.  Reordering the columns invalidates positional
        cursors into them, so every hop *sinking* at this label drops
        to the hash join for good."""
        done = st.done
        order = sorted(zip(st.f_ts[done:], st.f_tid[done:]))
        st.f_ts[done:] = array("q", (entry[0] for entry in order))
        st.f_tid[done:] = array("q", (entry[1] for entry in order))
        st.dirty = False
        for hop_idx, (_a, b) in enumerate(self._hops):
            if b == label:
                self._hop_dict[hop_idx] = True

    def _consume_pairs(self, end: int) -> Dict[int, object]:
        """The deferred hop join for a closing window: slice
        every pending source first-occurrence below ``end`` (entries
        below the window start cannot exist -- their window would have
        closed first) and match against the sink stream.

        Fast path: the sink's next unmatched positional slice carries
        the *same* ID sequence (one C-level list equality), so mates
        are positional and latencies one ``map(sub)`` pass -- returned
        as a ``(from_ts, lats, tids)`` column triple already in
        canonical order.  Any mismatch flips the hop to the hash join
        against the sink's first-occurrence dict, returned as sorted
        ``(from_ts, lat, tid)`` tuples."""
        wp: Dict[int, object] = {}
        hop_pos = self._hop_pos
        hop_dict = self._hop_dict
        for label, routes in self._from_routes.items():
            st = self._fstate[label]
            if st.dirty:
                self._resort(label, st)
            f_ts = st.f_ts
            done = st.done
            if done == len(f_ts) or f_ts[done] >= end:
                continue
            cut = bisect_left(f_ts, end, done)
            take_ts = f_ts[done:cut]
            take_tid = st.f_tid[done:cut]
            st.done = cut
            m = cut - done
            # Ties in from-timestamps break the "arrival order is
            # canonical order" shortcut; fall back to sorted tuples.
            # (Tracked incrementally at fold time -- O(1) here.)
            aligned_ok = m == 1 or not st.ties
            take_bytes = take_tid.tobytes()  # ID equality at memcmp speed
            for hop_idx, sink in routes:
                if not hop_dict[hop_idx]:
                    pos = hop_pos[hop_idx]
                    mates = sink.f_ts[pos : pos + m]
                    if sink.f_tid[pos : pos + m].tobytes() == take_bytes:
                        hop_pos[hop_idx] = pos + m
                        lats = list(map(int.__sub__, mates, take_ts))
                        if aligned_ok:
                            wp[hop_idx] = (take_ts, lats, take_tid)
                        else:
                            wp[hop_idx] = sorted(zip(take_ts, lats, take_tid))
                        continue
                    hop_dict[hop_idx] = True
                fdict = sink.fdict
                if fdict is None:
                    fdict = sink.fdict = dict(zip(sink.f_tid, sink.f_ts))
                pairs = [
                    (ts, mate - ts, tid)
                    for ts, mate, tid in zip(
                        take_ts, map(fdict.get, take_tid), take_tid
                    )
                    if mate is not None
                ]
                if pairs:
                    pairs.sort()
                    wp[hop_idx] = pairs
        return wp

    def _close_window(self, w: int) -> None:
        wt = self._wtput.pop(w, {})
        self._open.discard(w)
        if w > self._closed_upto:
            self._closed_upto = w
        start = w * self._window_ns
        end = start + self._window_ns
        wp = self._consume_pairs(end)

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
