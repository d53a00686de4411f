"""Tests for the continuous-query stream processor."""

from __future__ import annotations

import numpy as np
import pytest

from repro.generators import BCH5
from repro.stream import (
    InvalidUpdateError,
    SchemeMismatchError,
    UnknownRelationError,
)
from repro.stream.processor import StreamProcessor


class TestRegistration:
    def test_relations_and_memory(self):
        processor = StreamProcessor(medians=3, averages=10)
        processor.register_relation("r", 10)
        processor.register_relation("s", 10)
        assert processor.relations() == ["r", "s"]
        assert processor.memory_words() == 2 * 30

    def test_duplicate_rejected(self):
        processor = StreamProcessor()
        processor.register_relation("r", 8)
        with pytest.raises(ValueError):
            processor.register_relation("r", 8)

    def test_same_domain_shares_scheme(self):
        processor = StreamProcessor(medians=2, averages=3)
        processor.register_relation("r", 9)
        processor.register_relation("s", 9)
        processor.register_relation("t", 12)
        assert processor.scheme_of("r") is processor.scheme_of("s")
        assert processor.scheme_of("r") is not processor.scheme_of("t")

    def test_cross_domain_join_rejected(self):
        processor = StreamProcessor()
        processor.register_relation("r", 8)
        processor.register_relation("t", 12)
        with pytest.raises(ValueError):
            processor.register_join("r", "t")

    def test_unknown_relation_rejected(self):
        processor = StreamProcessor()
        with pytest.raises(ValueError):
            processor.process_point("ghost", 1)
        with pytest.raises(ValueError):
            processor.register_self_join("ghost")

    def test_bad_dimensions_rejected(self):
        with pytest.raises(ValueError):
            StreamProcessor(medians=0)
        processor = StreamProcessor()
        with pytest.raises(ValueError):
            processor.register_relation("r", 0)


class TestContinuousQueries:
    def test_join_estimate_tracks_stream(self):
        processor = StreamProcessor(medians=7, averages=250, seed=5)
        processor.register_relation("r", 10)
        processor.register_relation("s", 10)
        join = processor.register_join("r", "s")

        rng = np.random.default_rng(2)
        r_items = rng.integers(0, 1 << 10, size=800)
        s_items = rng.integers(0, 1 << 10, size=600)
        for item in r_items:
            processor.process_point("r", int(item))
        for item in s_items:
            processor.process_point("s", int(item))

        truth = float(
            np.dot(
                np.bincount(r_items, minlength=1 << 10),
                np.bincount(s_items, minlength=1 << 10),
            )
        )
        assert processor.answer(join) == pytest.approx(truth, rel=0.5)

    def test_interval_stream_self_join(self):
        processor = StreamProcessor(medians=7, averages=300, seed=6)
        processor.register_relation("coverage", 10)
        f2 = processor.register_self_join("coverage")
        intervals = [(0, 499), (250, 749), (600, 1023)]
        for low, high in intervals:
            processor.process_interval("coverage", low, high)
        coverage = np.zeros(1 << 10)
        for low, high in intervals:
            coverage[low : high + 1] += 1
        truth = float(np.dot(coverage, coverage))
        assert processor.answer(f2) == pytest.approx(truth, rel=0.4)

    def test_deletions(self):
        processor = StreamProcessor(medians=2, averages=4, seed=7)
        processor.register_relation("r", 8)
        processor.process_point("r", 3)
        processor.process_point("r", 3, weight=-1.0)
        assert np.allclose(processor.sketch_of("r").values(), 0.0)

    def test_distributed_merge(self):
        coordinator = StreamProcessor(medians=3, averages=50, seed=8)
        coordinator.register_relation("r", 8)
        coordinator.register_relation("s", 8)
        join = coordinator.register_join("r", "s")

        # A remote site sketches part of r under the SAME scheme.
        remote = coordinator.scheme_of("r").sketch()
        for item in (5, 5, 9):
            remote.update_point(item)
        coordinator.process_point("r", 9)
        coordinator.merge_sketch("r", remote)
        coordinator.process_point("s", 5)

        # r holds {5:2, 9:2}; joining with s = {5:1} gives 2.
        assert coordinator.answer(join) == pytest.approx(2.0, abs=1.5)

    def test_stale_handle_rejected(self):
        a = StreamProcessor(seed=9)
        a.register_relation("r", 8)
        handle = a.register_self_join("r")
        b = StreamProcessor(seed=9)
        b.register_relation("r", 8)
        with pytest.raises(ValueError):
            b.answer(handle)

    def test_custom_generator_factory(self):
        processor = StreamProcessor(
            medians=2,
            averages=3,
            seed=10,
            generator_factory=lambda bits, src: BCH5.from_source(
                bits, src, mode="arithmetic"
            ),
        )
        processor.register_relation("r", 8)
        processor.process_point("r", 7)
        cell = processor.scheme_of("r").channels[0][0]
        assert isinstance(cell.generator, BCH5)


class TestTypedIngestionErrors:
    """The validation front door, seen through the processor API."""

    def _processor(self, **kwargs):
        processor = StreamProcessor(medians=2, averages=4, seed=21, **kwargs)
        processor.register_relation("r", 8)
        return processor

    def test_unknown_relation_typed(self):
        processor = self._processor()
        with pytest.raises(UnknownRelationError, match="ghost"):
            processor.process_interval("ghost", 1, 2)

    def test_inverted_interval_rejected(self):
        processor = self._processor()
        with pytest.raises(InvalidUpdateError, match="inverted-interval"):
            processor.process_interval("r", 9, 3)

    @pytest.mark.parametrize("low, high", [(0, 256), (-1, 5), (300, 400)])
    def test_out_of_domain_interval_rejected(self, low, high):
        processor = self._processor()
        with pytest.raises(InvalidUpdateError, match="out-of-domain"):
            processor.process_interval("r", low, high)

    def test_negative_point_rejected(self):
        processor = self._processor()
        with pytest.raises(InvalidUpdateError, match="negative-item"):
            processor.process_point("r", -1)

    def test_overflow_point_rejected(self):
        processor = self._processor()
        with pytest.raises(InvalidUpdateError, match="out-of-domain"):
            processor.process_point("r", 1 << 20)

    def test_nan_weight_rejected(self):
        processor = self._processor()
        with pytest.raises(InvalidUpdateError, match="non-finite-weight"):
            processor.process_point("r", 3, weight=float("nan"))

    def test_rejection_leaves_counters_untouched(self):
        processor = self._processor()
        processor.process_point("r", 3)
        before = processor.sketch_of("r").values().copy()
        for bad in (lambda: processor.process_point("r", -1),
                    lambda: processor.process_interval("r", 9, 3)):
            with pytest.raises(InvalidUpdateError):
                bad()
        assert np.array_equal(processor.sketch_of("r").values(), before)

    def test_quarantine_policy_keeps_serving(self):
        processor = self._processor(policy="quarantine")
        processor.process_point("r", -1)
        processor.process_point("r", 3)
        assert processor.stats()["quarantined_total"] == 1
        assert processor.sketch_of("r").values().any()

    def test_merge_scheme_mismatch_typed(self):
        mine = self._processor()
        theirs = StreamProcessor(medians=2, averages=4, seed=22)
        theirs.register_relation("r", 8)
        with pytest.raises(SchemeMismatchError, match="fingerprint"):
            mine.merge_sketch("r", theirs.sketch_of("r"))

    def test_merge_same_seed_foreign_object_accepted(self):
        # A sketch from a different process (different scheme OBJECT,
        # same seed material) must merge: fingerprints decide.
        mine = self._processor()
        twin = StreamProcessor(medians=2, averages=4, seed=21)
        twin.register_relation("r", 8)
        twin.process_point("r", 5)
        mine.merge_sketch("r", twin.sketch_of("r"))
        assert np.array_equal(
            mine.sketch_of("r").values(), twin.sketch_of("r").values()
        )

    def test_merge_non_finite_counters_rejected(self):
        processor = self._processor()
        remote = processor.scheme_of("r").sketch()
        remote.cells[0][0].value = float("inf")
        with pytest.raises(InvalidUpdateError, match="non-finite"):
            processor.merge_sketch("r", remote)

    @pytest.mark.parametrize(
        "values",
        [
            [[1.0, 2.0, 3.0, 4.0], [1.0, 2.0]],  # a short row
            [[1.0, 2.0, 3.0, 4.0]],  # a missing row, one numpy would broadcast
            7.0,  # a scalar
            [[1.0, 2.0]],  # one short row
        ],
        ids=["short-row", "missing-row", "scalar", "single-short-row"],
    )
    def test_merge_record_of_wrong_shape_rejected(self, values):
        # The WAL-replay merge path: a record whose grid is not exactly
        # (medians, averages) must fail typed, not load truncated.
        processor = self._processor()
        processor.process_point("r", 3)
        before = processor.sketch_of("r").values()
        with pytest.raises(InvalidUpdateError) as caught:
            processor._do_merge("r", values)
        assert caught.value.code == "bad-shape"
        assert processor.sketch_of("r").values().tobytes() == before.tobytes()

    def test_typed_errors_still_value_errors(self):
        # Pre-taxonomy callers catch ValueError; that contract holds.
        processor = self._processor()
        with pytest.raises(ValueError):
            processor.process_point("r", -1)
        with pytest.raises(ValueError):
            processor.process_point("ghost", 1)
