"""Tests for the bulk-bench floor gate (``repro.bench.check_floors``)."""

from __future__ import annotations

from repro.bench import BULK_SPEEDUP_FLOORS, check_floors, run_bulk_bench


def _report(**workloads):
    return {
        "config": {"floors": {"eh3_point_batch": 10.0}},
        "workloads": workloads,
    }


def _entry(speedup=20.0, identical=True):
    return {
        "plane_ns_per_op": 300.0,
        "plane_ms": 6.0,
        "speedup": speedup,
        "identical": identical,
    }


class TestCheckFloors:
    def test_passing_report(self):
        report = _report(
            eh3_point_batch=_entry(), eh3_interval_batch=_entry(speedup=2.0)
        )
        assert check_floors(report) == []

    def test_speedup_below_floor_fails(self):
        problems = check_floors(_report(eh3_point_batch=_entry(speedup=9.9)))
        assert len(problems) == 1
        assert "below the 10.0x floor" in problems[0]

    def test_non_identical_counters_fail(self):
        # Unfloored workloads are gated on bit-identity too.
        problems = check_floors(
            _report(
                eh3_point_batch=_entry(),
                bch3_interval_batch=_entry(identical=False),
            )
        )
        assert len(problems) == 1
        assert "bch3_interval_batch" in problems[0]
        assert "not bit-identical" in problems[0]

    def test_missing_floored_workload_fails(self):
        problems = check_floors(_report(eh3_interval_batch=_entry()))
        assert problems == [
            "floored workload 'eh3_point_batch' is missing from the report"
        ]


class TestCoverLeg:
    def test_cover_batch_is_identical_and_floored(self):
        report = run_bulk_bench(
            medians=2, averages=4, intervals=60, points=200, repeats=1
        )
        entry = report["workloads"]["quaternary_cover_batch"]
        assert entry["identical"] is True
        assert entry["speedup"] > 0.0
        assert report["config"]["floors"] == BULK_SPEEDUP_FLOORS
        assert "quaternary_cover_batch" in BULK_SPEEDUP_FLOORS
