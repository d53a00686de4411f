"""Fault-injection scenarios: the recovery invariants, proven by pytest.

Each scenario from :mod:`repro.stream.faults` runs as its own test, plus
parametrized kill-points that interrupt ingestion at many positions
(including mid-snapshot territory) and assert the recovered counters are
bit-identical to an uninterrupted run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.sketch.plane import counter_plane
from repro.stream import ApplyError, DurabilityConfig, InjectedFault, StreamProcessor
from repro.stream.faults import (
    _reference_counters,
    _feed,
    _workload,
    run_fault_suite,
)

from .faults import breaking_plane, truncate_tail, wal_segments

SEED = 20060627


def _counter(name: str) -> float:
    return float(obs.snapshot().get(name, {}).get("value", 0.0))


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
            "plane-failure",
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
    """A failing plane fails its write loudly: nothing logged, nothing applied."""

    KERNELS = ("point_totals", "point_signs", "interval_totals")

    def _processor(self, policy="quarantine", **kwargs):
        processor = StreamProcessor(
            medians=3, averages=16, seed=SEED, policy=policy, **kwargs
        )
        processor.register_relation("r", 12)
        return processor

    def _with_hierarchy(self, policy="quarantine", **kwargs):
        processor = self._processor(policy, **kwargs)
        processor.register_hierarchy("r")
        processor.process_points("r", np.arange(0, 4096, 61, dtype=np.uint64))
        return processor

    @staticmethod
    def _state(processor):
        """The relation's sketch and hierarchy counters, as bytes."""
        levels = np.array(processor.hierarchy_of("r").counters_state())
        return processor.sketch_of("r").values().tobytes(), levels.tobytes()

    def test_no_exception_escapes_under_quarantine(self):
        processor = self._processor("quarantine")
        before = processor.sketch_of("r").values().tobytes()
        quarantined = _counter("stream.ingest.quarantined_total")
        with breaking_plane(processor, "r", fail_after=0):
            processor.process_points("r", np.arange(64, dtype=np.uint64))
        [record] = processor.dead_letters
        assert (record.relation, record.kind, record.code) == (
            "r", "points", "apply-failed",
        )
        assert "InjectedFault" in record.reason
        assert _counter("stream.ingest.quarantined_total") == quarantined + 1
        assert processor.sketch_of("r").values().tobytes() == before

    @pytest.mark.parametrize("policy", ["quarantine", "raise"])
    @pytest.mark.parametrize(
        "operation",
        [
            lambda p: p.process_point("r", 77, 2.5),
            lambda p: p.process_interval("r", 5, 900, -1.5),
            lambda p: p.process_points("r", np.arange(30, dtype=np.uint64)),
            lambda p: p.process_intervals("r", [[0, 9], [40, 400], [7, 8]]),
        ],
        ids=["point", "interval", "points", "intervals"],
    )
    def test_failed_write_is_never_logged(self, tmp_path, policy, operation):
        """The write fails while forming: the counters, the hierarchy and
        the WAL are untouched, and recovery reproduces the live state."""
        directory = str(tmp_path / "state")
        processor = self._with_hierarchy(policy, durability=directory)
        before = self._state(processor)
        applied = processor.stats()["applied_seq"]
        with breaking_plane(processor, "r", method=self.KERNELS):
            if policy == "raise":
                with pytest.raises(ApplyError) as caught:
                    operation(processor)
                assert isinstance(caught.value.__cause__, InjectedFault)
            else:
                operation(processor)
                assert processor.dead_letters.counts == {"apply-failed": 1}
        assert self._state(processor) == before
        assert processor.stats()["applied_seq"] == applied
        processor.close()
        recovered = StreamProcessor.recover(directory)
        assert recovered.stats()["applied_seq"] == applied
        assert self._state(recovered) == before

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
        """The base sketch's counters are formed, the hierarchy's fail:
        neither is committed."""
        processor = self._with_hierarchy()
        before = self._state(processor)
        with breaking_plane(
            processor, "r", fail_after=3, method=("point_signs", "interval_totals")
        ):
            feed(processor)
        assert self._state(processor) == before
        assert processor.dead_letters.counts == {"apply-failed": 1}

    def test_descents_raise_through_a_broken_plane(self):
        """No second sign source: a failing descent raises."""
        processor = self._with_hierarchy()
        hierarchy = processor.hierarchy_of("r")
        with breaking_plane(processor, "r", fail_after=0, method="point_signs"):
            with pytest.raises(InjectedFault):
                processor.heavy_hitters("r", 5.0)
            with pytest.raises(InjectedFault):
                processor.quantile("r", 0.5)
            with pytest.raises(InjectedFault):
                hierarchy.total()
        assert processor.heavy_hitters("r", 0.5)

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
        assert processor.dead_letters.total == 0

    @pytest.mark.parametrize("policy", ["quarantine", "raise"])
    @pytest.mark.parametrize(
        "operation, channel_method, fail_on",
        [
            # 3 x 16 counters: the channel path dies on cell 20 of 48.
            (lambda p: p.process_point("r", 77, 2.5), "point", 20),
            (lambda p: p.process_interval("r", 5, 900, -1.5), "interval", 20),
            (lambda p: p.process_points("r", np.arange(30, dtype=np.uint64)),
             "points", 20),
            # Three intervals: the channel path dies inside the second.
            (lambda p: p.process_intervals("r", [[0, 9], [40, 400], [7, 8]]),
             "interval", 60),
        ],
        ids=["point", "interval", "points", "intervals"],
    )
    def test_failed_scalar_write_leaves_counters_untouched(
        self, monkeypatch, policy, operation, channel_method, fail_on
    ):
        """RM7 has no packed plane, so its writes sum the channels one
        cell at a time: a channel raising partway through the grid must
        leave every counter as it was."""
        processor = self._processor(policy, scheme="rm7")
        assert processor.scheme_of("r").plane() is None
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
        if policy == "raise":
            with pytest.raises(ApplyError, match="channel failure"):
                operation(processor)
        else:
            operation(processor)
        assert calls["n"] == fail_on
        assert processor.sketch_of("r").values().tobytes() == before
        assert len(processor.dead_letters) == (1 if policy == "quarantine" else 0)

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
