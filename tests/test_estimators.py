"""Tests for the high-level estimation front-ends."""

from __future__ import annotations

import numpy as np
import pytest

from repro import query
from repro.generators import EH3, SeedSource
from repro.sketch.ams import SketchScheme
from repro.sketch.estimators import (
    exact_join_size,
    exact_self_join,
    relative_error,
    sketch_frequency_vector,
    sketch_intervals,
    sketch_points,
)


def scheme_of(source, medians=5, averages=60, bits=10) -> SketchScheme:
    return SketchScheme.from_generators(
        lambda src: EH3.from_source(bits, src), medians, averages, source
    )


class TestExactQuantities:
    def test_exact_join_size(self):
        r = np.array([1.0, 2.0, 0.0, 3.0])
        s = np.array([2.0, 1.0, 9.0, 1.0])
        assert exact_join_size(r, s) == 1 * 2 + 2 * 1 + 3 * 1

    def test_exact_self_join(self):
        assert exact_self_join([3.0, 4.0]) == 25.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            exact_join_size([1.0], [1.0, 2.0])

    def test_relative_error(self):
        assert relative_error(110.0, 100.0) == pytest.approx(0.1)
        assert relative_error(90.0, 100.0) == pytest.approx(0.1)
        with pytest.raises(ValueError):
            relative_error(1.0, 0.0)


class TestSketchBuilders:
    def test_points_and_frequency_agree(self, source: SeedSource):
        scheme = scheme_of(source)
        frequencies = np.zeros(1 << 10)
        points = [5, 5, 9, 700]
        for p in points:
            frequencies[p] += 1
        from_points = sketch_points(scheme, points)
        from_vector = sketch_frequency_vector(scheme, frequencies)
        assert np.allclose(from_points.values(), from_vector.values())

    def test_intervals_equal_expanded_points(self, source: SeedSource):
        scheme = scheme_of(source)
        from_intervals = sketch_intervals(scheme, [(10, 20), (100, 100)])
        from_points = sketch_points(
            scheme, list(range(10, 21)) + [100]
        )
        assert np.allclose(from_intervals.values(), from_points.values())


class TestEstimationAccuracy:
    def test_join_size_converges(self, source: SeedSource):
        rng = np.random.default_rng(7)
        scheme = scheme_of(source, medians=7, averages=150)
        r = rng.integers(0, 4, size=1 << 10).astype(float)
        s = rng.integers(0, 4, size=1 << 10).astype(float)
        truth = exact_join_size(r, s)
        x = sketch_frequency_vector(scheme, r)
        y = sketch_frequency_vector(scheme, s)
        assert relative_error(query.join_size(x, y).value, truth) < 0.2

    def test_self_join_uniform_is_exact_for_eh3(self, source: SeedSource):
        """Proposition 5 end-to-end: uniform data on a 4^n domain gives a
        ZERO-variance EH3 self-join estimate -- exact regardless of seeds."""
        scheme = scheme_of(source, medians=2, averages=3, bits=10)
        frequencies = np.full(1 << 10, 5.0)
        sketch = sketch_frequency_vector(scheme, frequencies)
        truth = exact_self_join(frequencies)
        assert query.self_join(sketch).value == pytest.approx(truth, rel=1e-9)

    def test_interval_relation_join(self, source: SeedSource):
        """Join of an interval-built relation with a point relation."""
        scheme = scheme_of(source, medians=7, averages=800)
        intervals = [(0, 511), (100, 300)]
        x = sketch_intervals(scheme, intervals)
        y = sketch_points(scheme, [200, 600])
        # Point 200 is covered by both intervals, 600 by the first only.
        # Per-cell variance ~ F2(intervals) * F2(points) ~ 1115 * 2, so
        # one row's sd is ~ sqrt(2230 / 800) ~ 1.7.
        truth = 2 + 1
        assert query.join_size(x, y).value == pytest.approx(truth, abs=3.0)
