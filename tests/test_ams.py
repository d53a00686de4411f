"""Tests for the median-of-averages AMS estimator grid."""

from __future__ import annotations

import numpy as np
import pytest

from repro import query
from repro.generators import EH3, SeedSource
from repro.schemes import get_spec, registered_schemes
from repro.sketch.ams import (
    SketchMatrix,
    SketchScheme,
    recommended_grid,
)
from repro.sketch.atomic import AtomicSketch, GeneratorChannel


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


class TestFromValuesShape:
    """A counter grid must be exactly ``(medians, averages)``."""

    @pytest.mark.parametrize(
        "values",
        [
            [[1.0, 2.0, 3.0, 4.0, 5.0]] * 2 + [[1.0, 2.0]],  # a short row
            [[1.0, 2.0, 3.0, 4.0, 5.0]] * 2,  # a missing row
            7.0,  # a scalar
            [[1.0, 2.0, 3.0, 4.0, 5.0]],  # one row numpy would broadcast
        ],
        ids=["short-row", "missing-row", "scalar", "single-row"],
    )
    def test_wrong_shapes_rejected(self, source: SeedSource, values):
        with pytest.raises(ValueError):
            SketchMatrix.from_values(eh3_scheme(source), values)

    def test_right_shape_copied(self, source: SeedSource):
        grid = np.arange(15, dtype=np.float64).reshape(3, 5)
        sketch = SketchMatrix.from_values(eh3_scheme(source), grid)
        grid[0, 0] = 99.0
        assert sketch.values()[0, 0] == 0.0


def _reference_grid(scheme: SketchScheme) -> list[list[AtomicSketch]]:
    return [[AtomicSketch(channel) for channel in row] for row in scheme.channels]


def _reference_values(grid: list[list[AtomicSketch]]) -> np.ndarray:
    return np.array([[cell.value for cell in row] for row in grid])


def _feed(sketch: SketchMatrix, reference, rng, exact_points, exact_intervals):
    """Random signed/fractional/zero-weight writes of every shape, on both.

    A batch the plane covers sums in its own order and commits once, so
    its weights are small dyadic fractions and the batches run first,
    while every counter is still exact: any summation order then gives
    the same bits.  Plane-less batches keep arbitrary weights, which pins
    the fallbacks' per-element order.  Single writes come last with
    arbitrary fractional weights: both sides run ``value + weight *
    total`` per counter.
    """
    domain = 1 << 10

    def weights(count, exact):
        if exact:
            return rng.integers(-12, 13, size=count) / 4.0
        drawn = rng.normal(scale=3.0, size=count)
        drawn[::4] = 0.0
        return drawn

    def interval():
        low, high = sorted(int(x) for x in rng.integers(0, domain, size=2))
        return low, high

    items = rng.integers(0, domain, size=40, dtype=np.uint64)
    batch_weights = weights(items.size, exact_points)
    sketch.update_points(items, batch_weights)
    for row in reference:
        for cell in row:
            cell.update_points(items, batch_weights)
    intervals = [interval() for _ in range(8)]
    batch_weights = weights(len(intervals), exact_intervals)
    sketch.update_intervals(intervals, batch_weights)
    for bounds, weight in zip(intervals, batch_weights):
        for row in reference:
            for cell in row:
                cell.update_interval(bounds, float(weight))
    for weight in weights(6, exact=False):
        item = int(rng.integers(domain))
        sketch.update_point(item, float(weight))
        for row in reference:
            for cell in row:
                cell.update_point(item, float(weight))
    for weight in weights(5, exact=False):
        bounds = interval()
        sketch.update_interval(bounds, float(weight))
        for row in reference:
            for cell in row:
                cell.update_interval(bounds, float(weight))


class TestArrayStoreMatchesScalarReference:
    """Counters byte-equal to per-cell :class:`AtomicSketch` updates."""

    @pytest.mark.parametrize("name", registered_schemes())
    def test_every_write_shape(self, source: SeedSource, rng, name):
        spec = get_spec(name)
        scheme = SketchScheme.from_factory(
            lambda src: GeneratorChannel(spec.factory(10, src)), 3, 5, source
        )
        plane = scheme.plane()
        exact_points = plane is not None
        exact_intervals = getattr(plane, "interval_kind", None) is not None
        a, b = scheme.sketch(), scheme.sketch()
        ref_a, ref_b = _reference_grid(scheme), _reference_grid(scheme)
        _feed(a, ref_a, rng, exact_points, exact_intervals)
        _feed(b, ref_b, rng, exact_points, exact_intervals)
        assert a.values().tobytes() == _reference_values(ref_a).tobytes()
        assert b.values().tobytes() == _reference_values(ref_b).tobytes()
        union = [[x.combined(y) for x, y in zip(*rows)] for rows in zip(ref_a, ref_b)]
        assert a.combined(b).values().tobytes() == _reference_values(union).tobytes()
        minus = np.array(
            [[x.value - y.value for x, y in zip(*rows)] for rows in zip(ref_a, ref_b)]
        )
        assert a.difference(b).values().tobytes() == minus.tobytes()

    def test_cells_write_through(self, source: SeedSource):
        sketch = eh3_scheme(source).sketch()
        sketch.cells[1][2].value += 1.5
        sketch.cells[1][2].update_point(9, 2.0)
        expected = 1.5 + 2.0 * sketch.scheme.channels[1][2].point(9)
        assert sketch.values()[1, 2] == expected
        assert sketch.cells[1][2].value == expected
        assert np.count_nonzero(sketch.values()) == 1


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
