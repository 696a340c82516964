"""BENCHMARK.json, spec.py and what the runner emits name the same
workloads and metrics, exactly."""

import json
import os

import pytest

from pipeline_bench import child, run, spec
from pipeline_bench.workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def load_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_benchmark_json_is_the_spec():
    assert load_benchmark_json() == spec.benchmark_json()


def test_workload_names_match():
    declared = [w["name"] for w in load_benchmark_json()["workloads"]]
    assert declared == list(WORKLOADS) == list(spec.WORKLOADS)


def test_contract_limits():
    document = load_benchmark_json()
    assert set(document) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 2 <= len(document["workloads"]) <= 8
    assert 1 <= len(document["per_layer"]) <= 128
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in document["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in document["end_to_end"])
    setup = [m for m in document["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]
    names = [m["name"] for m in document["end_to_end"] + document["per_layer"]]
    assert len(set(names)) == len(names)
    assert all(len(m["unit"]) <= 16 for m in document["end_to_end"] + document["per_layer"])
    runs = 4 + 22 * len(document["workloads"])
    assert runs * (document["run_seconds"] + 13) < 3420  # set-up and overshoot included


def test_child_emits_every_per_layer_metric(capsys):
    status = child.main([
        "--workload", "udp_trace", "--seed", "3", "--scale", "0.02",
        "--passes", "1", "--trace", "1",
    ])
    assert status == 0
    document = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert list(document["per_layer"]) == [m.name for m in spec.PER_LAYER]
    assert document["checks"]["failed"] == 0, document["checks"]["failures"]
    # Tracing work really happened and was attributed.
    assert document["per_layer"]["ebpf.program_runs"] > 0
    assert document["per_layer"]["ebpf.self_s"] > 0
    assert 0 < document["per_layer"]["trace.unattributed_share"] < 1


def test_driver_mode_prints_the_result_line(capsys):
    status = run.main([
        "--workload", "analysis_replay", "--seed", "2", "--seconds", "0.2",
        "--trace", "0", "--scale", "0.02",
    ])
    assert status == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m.name for m in spec.END_TO_END]
    for metric in spec.END_TO_END:
        assert result["metrics"][metric.name]["unit"] == metric.unit
        assert result["metrics"][metric.name]["value"] > 0


def test_seconds_belongs_to_the_driver_form(capsys):
    with pytest.raises(SystemExit):
        run.main(["--only", "udp_trace", "--seconds", "1"])
    with pytest.raises(SystemExit):
        run.main(["--workload", "udp_trace", "--seconds", "1", "--trace", "0", "--passes", "2"])
    capsys.readouterr()
