"""The checks pass on a clean replay and catch planted faults."""

import pytest

from pipeline_bench import checks, generator
from pipeline_bench.workloads import WORKLOADS, Stages

NAME = "analysis_replay"


@pytest.fixture(scope="module")
def inputs():
    return generator.generate(5, 1500)


def run_checks(result):
    log = checks.CheckLog()
    checks.check_pass(log, NAME, result)
    checks.check_exports(log, NAME, result, parse=True)
    return log


def test_clean_pass_has_no_failures(inputs):
    result = WORKLOADS[NAME].run(inputs, Stages())
    log = run_checks(result)
    assert log.attempted > 15
    assert log.failures == []
    again = WORKLOADS[NAME].run(inputs, Stages())
    checks.check_repeat(log, NAME, _record(result), _record(again))
    assert log.failures == []


def test_dropped_blob_is_caught(inputs):
    # The collector never sees one shipment: its records are neither
    # stored nor accounted for, and the resequencer wedges behind it.
    dropped = inputs._replace(deliveries=inputs.deliveries[:4] + inputs.deliveries[5:])
    log = run_checks(WORKLOADS[NAME].run(dropped, Stages()))
    assert any("records sent = records received" in failure for failure in log.failures)


def test_truncated_export_is_caught(inputs):
    result = WORKLOADS[NAME].run(inputs, Stages())
    text = result.exports["packets.chrome"]
    result.exports["packets.chrome"] = text[: len(text) // 2]
    log = run_checks(result)
    assert any("packets.chrome parses" in failure for failure in log.failures)


def test_missing_spans_in_export_are_caught(inputs):
    result = WORKLOADS[NAME].run(inputs, Stages())
    kept = result.forests["slice"]
    result.forests["slice"] = type(kept)(trees=kept.trees[:-1], orphan_records=kept.orphan_records)
    log = run_checks(result)
    assert any("slice.otlp span count" in failure for failure in log.failures)


def test_changed_digest_is_caught(inputs):
    first = WORKLOADS[NAME].run(inputs, Stages())
    other = WORKLOADS[NAME].run(generator.generate(6, 1500), Stages())
    log = checks.CheckLog()
    checks.check_repeat(log, NAME, _record(first), _record(other))
    assert any("sim_digest repeats" in failure for failure in log.failures)


class _record:
    """The three fields check_repeat reads off a pass record."""

    def __init__(self, result):
        self.units = result.units
        self.counts = result.counts
        self.digest = checks.sim_digest(result)
