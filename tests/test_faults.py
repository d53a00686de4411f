"""Fault-injection scenarios: the recovery invariants, proven by pytest.

Each scenario from :mod:`repro.stream.faults` runs as its own test, plus
parametrized kill-points that interrupt ingestion at many positions
(including mid-snapshot territory) and assert the recovered counters are
bit-identical to an uninterrupted run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sketch.plane import counter_plane
from repro.stream import DurabilityConfig, StreamProcessor
from repro.stream.faults import (
    _reference_counters,
    _feed,
    _workload,
    run_fault_suite,
)

from .faults import breaking_plane, truncate_tail, wal_segments

SEED = 20060627


class TestScenarioSuite:
    """The whole deterministic suite, one pytest case per scenario."""

    @pytest.fixture(scope="class")
    def results(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("faults")
        return {r.name: r for r in run_fault_suite(SEED, str(base))}

    @pytest.mark.parametrize(
        "name",
        [
            "kill-and-recover",
            "torn-wal-tail",
            "partial-snapshot-fallback",
            "sealed-corruption-detected",
            "plane-degradation",
            "quarantine-isolation",
        ],
    )
    def test_scenario(self, results, name):
        assert name in results, f"scenario {name} never ran"
        assert results[name].passed, results[name].detail


class TestKillPoints:
    """Interrupt at arbitrary records; recovery must be exact."""

    @pytest.mark.parametrize("kill_at_fraction", [0.05, 0.31, 0.5, 0.77, 0.99])
    def test_kill_recover_finish(self, tmp_path, kill_at_fraction):
        ops = _workload(SEED, points=120, intervals=30)
        reference = _reference_counters(SEED, ops)
        cut = max(1, int(len(ops) * kill_at_fraction))
        directory = str(tmp_path / "state")
        processor = StreamProcessor(
            medians=3,
            averages=16,
            seed=SEED,
            durability=DurabilityConfig(
                directory=directory, checkpoint_every=23
            ),
        )
        processor.register_relation("r", 12)
        _feed(processor, ops, 0, cut)
        del processor  # killed: no close, no final checkpoint
        recovered = StreamProcessor.recover(directory)
        _feed(recovered, ops, cut)
        assert np.array_equal(recovered.sketch_of("r").values(), reference)

    def test_double_recovery_is_idempotent(self, tmp_path):
        """Recovering twice from the same state replays exactly once."""
        ops = _workload(SEED, points=60, intervals=10)
        directory = str(tmp_path / "state")
        processor = StreamProcessor(
            medians=2, averages=8, seed=SEED,
            durability=str(directory),
        )
        processor.register_relation("r", 12)
        _feed(processor, ops)
        processor.close()
        first = StreamProcessor.recover(directory)
        second = StreamProcessor.recover(directory)
        assert np.array_equal(
            first.sketch_of("r").values(), second.sketch_of("r").values()
        )
        assert first.stats()["applied_seq"] == second.stats()["applied_seq"]


class TestDegradationGuarantees:
    """The acceptance criteria of the graceful-degradation path."""

    def _processor(self, policy="quarantine"):
        processor = StreamProcessor(
            medians=3, averages=16, seed=SEED, policy=policy
        )
        processor.register_relation("r", 12)
        return processor

    def test_no_exception_escapes_under_quarantine(self):
        processor = self._processor("quarantine")
        items = np.arange(64, dtype=np.uint64)
        with breaking_plane(processor, "r", fail_after=0):
            processor.process_points("r", items)  # must not raise
        assert len(processor.incidents) == 1
        assert processor.incidents[0].recovered

    def test_degraded_counters_identical_for_both_batch_kinds(self):
        healthy = self._processor()
        degraded = self._processor()
        items = np.arange(128, dtype=np.uint64)
        weights = np.arange(1, 129, dtype=np.float64)
        intervals = [[i * 8, i * 8 + 11] for i in range(40)]
        healthy.process_points("r", items, weights)
        healthy.process_intervals("r", intervals)
        with breaking_plane(degraded, "r", fail_after=0):
            with breaking_plane(
                degraded, "r", fail_after=0, method="interval_totals"
            ):
                degraded.process_points("r", items, weights)
                degraded.process_intervals("r", intervals)
        assert np.array_equal(
            healthy.sketch_of("r").values(), degraded.sketch_of("r").values()
        )
        assert [i.operation for i in degraded.incidents] == [
            "points", "intervals",
        ]

    def _hierarchy_twins(self):
        healthy = self._processor()
        broken = self._processor()
        for processor in (healthy, broken):
            processor.register_hierarchy("r")
            processor.process_points("r", np.arange(0, 4096, 61, dtype=np.uint64))
        return healthy, broken

    @staticmethod
    def _levels(processor):
        return np.array(processor.hierarchy_of("r").counters_state())

    def test_hierarchy_retry_matches_healthy_twin(self):
        """The plane dies after the base write: one scalar retry of the
        hierarchy, counters equal to a healthy twin's."""
        healthy, broken = self._hierarchy_twins()
        items = np.arange(7, 4096, 97, dtype=np.uint64)
        weights = np.arange(items.size, dtype=np.float64) - 9.0
        healthy.process_points("r", items, weights)
        # Call 1 is the base sketch's sign pass; call 2 the hierarchy's.
        with breaking_plane(broken, "r", fail_after=1, method="point_signs"):
            broken.process_points("r", items, weights)
        assert np.array_equal(self._levels(broken), self._levels(healthy))
        assert np.array_equal(
            broken.sketch_of("r").values(), healthy.sketch_of("r").values()
        )
        [incident] = broken.incidents
        assert (incident.operation, incident.relation, incident.recovered) == (
            "hierarchy", "r", True,
        )
        assert "point_signs" in incident.error

    @pytest.mark.parametrize(
        "feed",
        [
            # Call 1 is the base sketch's sign pass; 20k points sign
            # three levels per hierarchy pass, so hierarchy pass 3 fails.
            lambda p: p.process_points(
                "r", np.arange(20_000, dtype=np.uint64) % 4096
            ),
            # Call 1 is the base sketch's interval kernel; the hierarchy
            # then calls it once per block run, edge blocks included, so
            # call 4 (level 1's tail edge block) fails.
            lambda p: p.process_interval("r", 5, 3000, 2.0),
        ],
        ids=["tall-points", "interval"],
    )
    def test_hierarchy_fast_path_failing_partway_commits_nothing(self, feed):
        healthy, broken = self._hierarchy_twins()
        feed(healthy)
        with breaking_plane(
            broken, "r", fail_after=3, method=("point_signs", "interval_totals")
        ):
            feed(broken)
        assert np.array_equal(self._levels(broken), self._levels(healthy))
        assert [
            (i.operation, i.relation, i.recovered) for i in broken.incidents
        ] == [("hierarchy", "r", True)]

    def test_descents_answer_through_a_broken_plane(self):
        """Descents fall back to the generators' signs: same answers."""
        processor, _ = self._hierarchy_twins()
        processor.process_points("r", np.arange(40, dtype=np.uint64) % 5)
        hierarchy = processor.hierarchy_of("r")
        hitters = processor.heavy_hitters("r", 5.0)
        median = processor.quantile("r", 0.5)
        total = hierarchy.total()
        assert hitters
        with breaking_plane(processor, "r", fail_after=0, method="point_signs"):
            assert processor.heavy_hitters("r", 5.0) == hitters
            assert processor.quantile("r", 0.5) == median
            assert hierarchy.total() == total
        assert len(processor.incidents) == 0

    def test_breaking_plane_restores_the_plane(self):
        processor = self._processor()
        plane = counter_plane(processor.scheme_of("r"))
        kernel = plane._parity  # an instance attribute, unlike point_signs
        with breaking_plane(
            processor, "r", method=["_parity", "point_signs", "_parity"]
        ):
            pass
        assert plane._parity is kernel
        assert "point_signs" not in vars(plane)
        processor.process_points("r", np.arange(64, dtype=np.uint64))
        assert len(processor.incidents) == 0

    @pytest.mark.parametrize("policy", ["quarantine", "raise"])
    @pytest.mark.parametrize(
        "operation, channel_method, fail_on",
        [
            # 3 x 16 counters: the scalar path dies on cell 20 of 48.
            (lambda p: p.process_point("r", 77, 2.5), "point", 20),
            (lambda p: p.process_interval("r", 5, 900, -1.5), "interval", 20),
            (lambda p: p.process_points("r", np.arange(30, dtype=np.uint64)),
             "points", 20),
            # Three intervals: the scalar path dies inside the second.
            (lambda p: p.process_intervals("r", [[0, 9], [40, 400], [7, 8]]),
             "interval", 60),
        ],
        ids=["point", "interval", "points", "intervals"],
    )
    def test_failed_scalar_write_leaves_counters_untouched(
        self, monkeypatch, policy, operation, channel_method, fail_on
    ):
        """The plane fails, then a channel of the scalar retry raises
        partway through the grid: no counter may have moved."""
        processor = self._processor(policy)
        processor.process_points("r", np.arange(0, 4000, 37, dtype=np.uint64))
        before = processor.sketch_of("r").values().tobytes()
        calls = {"n": 0}

        def failing_on_kth(original):
            def method(*args):
                calls["n"] += 1
                if calls["n"] == fail_on:
                    raise RuntimeError(f"channel failure on call {fail_on}")
                return original(*args)

            return method

        for row in processor.scheme_of("r").channels:
            for channel in row:
                original = getattr(channel, channel_method)
                monkeypatch.setattr(channel, channel_method, failing_on_kth(original))
        with breaking_plane(
            processor, "r", method=("point_totals", "interval_totals")
        ):
            if policy == "raise":
                with pytest.raises(RuntimeError, match="channel failure"):
                    operation(processor)
            else:
                operation(processor)
        assert calls["n"] == fail_on
        assert processor.sketch_of("r").values().tobytes() == before
        [incident] = processor.incidents
        assert not incident.recovered
        assert len(processor.dead_letters) == (1 if policy == "quarantine" else 0)

    def test_raise_policy_still_degrades_silently(self):
        """Degradation is not a policy matter: fast-path failures fall
        back even under ``raise`` (only double failures propagate)."""
        processor = self._processor("raise")
        with breaking_plane(processor, "r", fail_after=0):
            processor.process_points("r", np.arange(16, dtype=np.uint64))
        assert len(processor.incidents) == 1

    def test_torn_tail_then_corrupt_byte_distinct(self, tmp_path):
        """Torn tail is tolerated; the same bytes flipped mid-segment in
        a sealed segment are corruption."""
        directory = str(tmp_path / "state")
        processor = StreamProcessor(
            medians=2, averages=4, seed=SEED, durability=directory
        )
        processor.register_relation("r", 8)
        for item in range(50):
            processor.process_point("r", item)
        processor.close()
        tail = wal_segments(directory)[-1]
        truncate_tail(tail, 5)
        recovered = StreamProcessor.recover(directory)
        # 50 points written; the torn final record is dropped.
        assert recovered.stats()["applied_seq"] == 50  # register + 49 points
