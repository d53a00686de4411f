"""Self-test of the benchmark harness: ``pytest benchmarks/e2e``.

Runs every workload in-process with small op counts, so it checks the
harness's plumbing, not the numbers.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from e2e import HERE, ROOT, use_source_tree

use_source_tree()

from e2e import compare, run, trace, verify, workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3
SMALL = {"max_ops": 40, "readback": 20}


def _units(section: str) -> dict[str, str]:
    return {spec["name"]: spec["unit"] for spec in BENCHMARK[section]}


def test_benchmark_lists_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_end_to_end_metrics_are_emitted_with_units(name):
    result = workloads.run_workload(name, SEED, **SMALL)
    assert result["correct"], result["failures"]
    metrics = run.end_to_end_metrics([result])
    assert {m: unit for m, (_, unit) in metrics.items()} == _units("end_to_end")
    assert all(value > 0 for value, _ in metrics.values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_per_layer_metrics_are_emitted_with_units(name):
    base = workloads.run_workload(name, SEED, **SMALL)
    same_ops = {"max_ops": base["ops"], "readback": 0, "recover": False}
    traced = workloads.run_workload(name, SEED, traced=True, **same_ops)
    quiet = workloads.run_workload(name, SEED, obs_enabled=False, **same_ops)
    assert traced["correct"] and quiet["correct"]
    metrics = trace.per_layer_metrics(base, traced, quiet)
    assert {m: unit for m, (_, unit) in metrics.items()} == _units("per_layer")


def test_traced_self_times_sum_to_root_spans(tmp_path):
    path = tmp_path / "spans.jsonl"
    result = workloads.run_workload(
        "cluster_inline", SEED, traced=True, trace_path=str(path), **SMALL
    )
    ledger = result["trace"]
    assert ledger["root_s"] > 0
    assert sum(ledger["self_s"].values()) == pytest.approx(ledger["root_s"], rel=1e-9)
    events = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(events) == ledger["spans_kept"] > 0
    assert {event["cat"] for event in events} <= set(trace.LAYERS)


def test_a_flipped_counter_is_caught(monkeypatch):
    from repro.sketch.ams import SketchMatrix

    row, column = verify.cell_sample(SEED, workloads.MEDIANS, workloads.AVERAGES)[0]
    original = SketchMatrix.update_point
    calls = []

    def flipping(self, item, weight=1.0):
        original(self, item, weight)
        calls.append(item)
        if len(calls) == 5:
            self.cells[row][column].value += 1.0

    monkeypatch.setattr(SketchMatrix, "update_point", flipping)
    result = workloads.run_workload("tuple_ingest", SEED, **SMALL)
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0
    assert any(f"cell ({row}, {column})" in problem for problem in result["failures"])


def test_compare_verdicts():
    def runs(values):
        return [
            {"workload": "w", "trace": 0, "seed": seed, "metrics": {"query_p50_us": value}}
            for seed, value in enumerate(values)
        ]

    benchmark = {
        "end_to_end": [
            {"name": "query_p50_us", "unit": "us", "better": "lower", "bound": 0.1}
        ],
        "per_layer": [],
    }
    parent = runs([100 + k % 3 for k in range(10)])

    def verdict_for(values):
        (_, verdicts), = compare.compare(parent, runs(values), benchmark)
        return verdicts["query_p50_us"][0]

    assert verdict_for([80 + k % 3 for k in range(10)]) == "gain"
    assert verdict_for([120 + k % 3 for k in range(10)]) == "regression"
    assert verdict_for([101 + k % 3 for k in range(10)]) == "same"
    assert verdict_for([60, 140] * 5) == "unresolved"


def test_a_checkout_without_the_program_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE,
        tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("results", ".work", "__pycache__"),
    )
    completed = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "tuple_ingest",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
