"""Tests for the median-of-averages AMS estimator grid."""

from __future__ import annotations

import numpy as np
import pytest

from repro import query
from repro.generators import EH3, SeedSource
from repro.sketch.ams import (
    SketchScheme,
    recommended_grid,
)
from repro.sketch.atomic import GeneratorChannel


def eh3_scheme(source: SeedSource, medians=3, averages=5, bits=10) -> SketchScheme:
    return SketchScheme.from_generators(
        lambda src: EH3.from_source(bits, src), medians, averages, source
    )


class TestSchemeConstruction:
    def test_grid_dimensions(self, source: SeedSource):
        scheme = eh3_scheme(source, medians=3, averages=5)
        assert scheme.medians == 3
        assert scheme.averages == 5
        assert scheme.counters == 15

    def test_all_channels_independent(self, source: SeedSource):
        scheme = eh3_scheme(source, medians=2, averages=3)
        seeds = {
            (cell.generator.s0, cell.generator.s1)
            for row in scheme.channels
            for cell in row
        }
        assert len(seeds) == 6  # overwhelmingly likely for a 11-bit seed

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            SketchScheme([])
        with pytest.raises(ValueError):
            SketchScheme([[]])

    def test_ragged_grid_rejected(self, source: SeedSource):
        channel = GeneratorChannel(EH3.from_source(4, source))
        with pytest.raises(ValueError):
            SketchScheme([[channel], [channel, channel]])

    def test_bad_dimensions_rejected(self, source: SeedSource):
        with pytest.raises(ValueError):
            eh3_scheme(source, medians=0)


class TestRecommendedGrid:
    def test_grows_with_precision(self):
        m1, a1 = recommended_grid(0.1, 0.05)
        m2, a2 = recommended_grid(0.05, 0.05)
        assert a2 > a1
        assert m1 == m2

    def test_grows_with_confidence(self):
        m1, _ = recommended_grid(0.1, 0.1)
        m2, _ = recommended_grid(0.1, 0.001)
        assert m2 > m1

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            recommended_grid(0.0, 0.1)
        with pytest.raises(ValueError):
            recommended_grid(0.1, 1.0)


class TestSketchMatrix:
    def test_update_point_touches_every_cell(self, source: SeedSource):
        scheme = eh3_scheme(source)
        sketch = scheme.sketch()
        sketch.update_point(7)
        values = sketch.values()
        assert values.shape == (3, 5)
        assert (np.abs(values) == 1).all()

    def test_frequency_vector_fast_path(self, source: SeedSource):
        scheme = eh3_scheme(source, bits=8)
        frequencies = np.zeros(256)
        frequencies[[3, 70, 200]] = [2.0, 1.0, 5.0]

        fast = scheme.sketch()
        fast.update_frequency_vector(frequencies)
        slow = scheme.sketch()
        for i, f in enumerate(frequencies):
            if f:
                slow.update_point(i, f)
        assert np.allclose(fast.values(), slow.values())

    def test_combined_and_difference(self, source: SeedSource):
        scheme = eh3_scheme(source, bits=8)
        a = scheme.sketch()
        b = scheme.sketch()
        a.update_point(5)
        b.update_point(200, weight=3.0)
        union = a.combined(b)
        assert np.allclose(union.values(), a.values() + b.values())
        diff = a.difference(b)
        assert np.allclose(diff.values(), a.values() - b.values())

    def test_cross_scheme_operations_rejected(self, source: SeedSource):
        a = eh3_scheme(source).sketch()
        b = eh3_scheme(source).sketch()
        with pytest.raises(ValueError):
            a.combined(b)
        with pytest.raises(ValueError):
            a.difference(b)
        with pytest.raises(ValueError):
            query.product(a, b)


class TestEstimateProduct:
    def test_point_in_interval_indicator(self, source: SeedSource):
        """E[X_interval * X_point] = 1 iff the point is inside.

        Per-cell variance is about the interval's size (F2 of the interval
        relation), so the tolerance follows sqrt(size / averages).
        """
        scheme = eh3_scheme(source, medians=7, averages=800, bits=12)
        interval_sketch = scheme.sketch()
        interval_sketch.update_interval((100, 160))  # 61 points
        inside = scheme.sketch()
        inside.update_point(130)
        outside = scheme.sketch()
        outside.update_point(50)
        # sd ~ sqrt(61 / 800) ~ 0.28 per row; medians tighten further.
        assert query.product(interval_sketch, inside).value == pytest.approx(
            1.0, abs=0.7
        )
        assert query.product(interval_sketch, outside).value == pytest.approx(
            0.0, abs=0.7
        )

    def test_exact_on_identical_singletons(self, source: SeedSource):
        """xi_i * xi_i = 1 always: the estimate is exact, not just unbiased."""
        scheme = eh3_scheme(source)
        x = scheme.sketch()
        x.update_point(13, weight=4.0)
        y = scheme.sketch()
        y.update_point(13, weight=2.0)
        assert query.product(x, y).value == pytest.approx(8.0)

    def test_median_is_robust_to_one_bad_row(self, source: SeedSource):
        scheme = eh3_scheme(source, medians=3, averages=2)
        x = scheme.sketch()
        x.update_point(9)
        y = scheme.sketch()
        y.update_point(9)
        # Corrupt one full row of x; the median survives.
        for cell in x.cells[0]:
            cell.value = 1e9
        assert query.product(x, y).value == pytest.approx(1.0)
