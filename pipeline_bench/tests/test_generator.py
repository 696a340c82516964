"""The replay input is a pure function of (seed, traces)."""

from repro.core.records import RECORD_BYTES

from pipeline_bench import generator


def test_same_seed_same_blobs():
    first = generator.generate(7, 900)
    second = generator.generate(7, 900)
    assert first.sha256 == second.sha256
    assert first.deliveries == second.deliveries
    assert first.links == second.links


def test_different_seed_differs():
    assert generator.generate(7, 900).sha256 != generator.generate(8, 900).sha256


def test_planted_faults_are_counted():
    inp = generator.generate(3, 3300)
    windows = 3300 // generator.TRACES_PER_SHIPMENT
    assert inp.windows == windows
    # Distinct records: five per trace, minus the receiver's two for
    # every incomplete trace.
    assert inp.records == 5 * 3300 - 2 * inp.incomplete_traces
    assert 0 < inp.incomplete_traces < 3300 * 0.05
    delivered = sum(len(blob) for _, _, blob in inp.deliveries) // RECORD_BYTES
    assert delivered > inp.records  # duplicated windows are delivered twice
    assert inp.duplicate_deliveries == len(generator.NODES) * (windows // generator.DUPLICATE_EVERY)
    # One pair of windows arrives out of sequence order.
    seqs = [seq for node, seq, _ in inp.deliveries if node == "tx"]
    assert seqs != sorted(seqs)
    # Three of every four traces name a parent, never themselves.
    assert len(inp.links) == 3300 * 3 // 4
    assert all(parent < child for child, (parent,) in inp.links.items())
