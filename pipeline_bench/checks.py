"""Correctness checks on what a pass produced.

A benchmark number means nothing if the pipeline dropped, duplicated or
mis-assembled records on the way.  Every measured pass is checked
against the conservation laws the repository already asserts piecemeal
(ROADMAP aim 3), and the failed/attempted counts travel with the
timings:

* conservation -- records appended = rows stored + drops/dedups with a
  reason (each workload states its own equations, ``PassResult.laws``);
* span partitions telescope -- a packet's devices and wires add up to
  the packet, a device's hops add up to the device, exactly;
* the streaming ``summary()`` equals the offline ``core.metrics``
  kernels byte for byte;
* exports carry exactly the forest's spans and parse as JSON;
* repeated passes on the same inputs agree on every count and on
  ``sim_digest``.
"""

from __future__ import annotations

import hashlib
import json
from typing import List

from repro.streaming import offline_reference_json


class CheckLog:
    """Attempted/failed tally; failures keep their description."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok

    def equal(self, name: str, left, right) -> bool:
        return self.check(name, left == right, f"{left!r} != {right!r}")

    @property
    def failed(self) -> int:
        return len(self.failures)


def sim_digest(result) -> str:
    """sha256 over the deterministic outputs of a pass: work count,
    every exact count, the workload's results (client summary, metric
    kernels, hop statistics, streaming ``summary_json()``) and every
    export, byte for byte."""
    digest = hashlib.sha256()
    digest.update(str(result.units).encode())
    digest.update(repr(sorted(result.counts.items())).encode())
    for output in result.outputs:
        digest.update(b"|")
        digest.update((output if isinstance(output, str) else repr(output)).encode())
    for name in sorted(result.exports):
        digest.update(f"|{name}:".encode())
        digest.update(result.exports[name].encode())
    return digest.hexdigest()


def _telescopes(span) -> bool:
    """Children of a packet or device span partition it exactly."""
    children = span.children
    if not children:
        return True
    if children[0].start_ns != span.start_ns or children[-1].end_ns != span.end_ns:
        return False
    return all(a.end_ns == b.start_ns for a, b in zip(children, children[1:]))


def check_pass(log: CheckLog, name: str, result) -> None:
    """The per-pass checks: conservation, telescoping, streaming =
    offline.  Cheap enough to run after every measured pass."""
    for law, left, right in result.laws:
        log.equal(f"{name}: {law}", left, right)
    for forest_name, forest in result.forests.items():
        broken = 0
        spans = 0
        for tree in forest:
            for span in tree.root.walk():
                spans += 1
                if span.kind in ("packet", "device") and not _telescopes(span):
                    broken += 1
        log.equal(f"{name}: {forest_name} span partitions telescope", broken, 0)
        log.equal(f"{name}: {forest_name} span count", spans, forest.span_count())
    if result.streaming is not None:
        log.check(
            f"{name}: streaming summary = offline kernels",
            result.streaming.summary_json()
            == offline_reference_json(result.db, result.streaming.config),
        )
        log.equal(
            f"{name}: streaming saw every stored row",
            result.streaming.records + result.streaming.late_records,
            result.counts["rows_stored"],
        )


def check_exports(log: CheckLog, name: str, result, parse: bool) -> None:
    """Exports hold exactly the forest's spans, counted on the text;
    with ``parse`` they are also loaded as JSON and counted again on the
    parsed document.  Parsing allocates several times the export's size
    and takes longer than the pass on the largest ones, so the child
    parses the warm-up pass's exports and counts the rest -- every pass
    between is covered by ``sim_digest``, which hashes the exports."""
    for export_name, text in result.exports.items():
        forest_name, _, fmt = export_name.partition(".")
        forest = result.forests[forest_name]
        if fmt == "chrome":
            # pid 0 is the control-plane track, not part of the forest.
            counted = text.count('"ph":"X"') - text.count('"ph":"X","pid":0,')
        else:
            counted = text.count('"spanId":')
        log.equal(f"{name}: {export_name} span count", counted, forest.span_count())
        log.check(f"{name}: {export_name} is one complete document",
                  text.startswith("{") and text.rstrip().endswith("}"))
        if not parse:
            continue
        try:
            document = json.loads(text)
        except ValueError as error:
            log.check(f"{name}: {export_name} parses", False, str(error))
            continue
        log.check(f"{name}: {export_name} parses", True)
        if fmt == "chrome":
            spans = sum(
                1 for event in document["traceEvents"]
                if event["ph"] == "X" and event["pid"] != 0
            )
            log.equal(f"{name}: {export_name} parsed trees",
                      document["otherData"]["trees"], len(forest.trees))
        else:
            spans = sum(
                len(scope["spans"])
                for resource in document["resourceSpans"]
                for scope in resource["scopeSpans"]
            )
        log.equal(f"{name}: {export_name} parsed span count", spans, forest.span_count())


def check_repeat(log: CheckLog, name: str, first, result) -> None:
    """A later pass against the first: same inputs, same outputs."""
    log.equal(f"{name}: units repeat", result.units, first.units)
    log.equal(f"{name}: counts repeat", result.counts, first.counts)
    log.equal(f"{name}: sim_digest repeats", result.digest, first.digest)
