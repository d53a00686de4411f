"""Tests: bulk vectorized sketch updates equal their scalar counterparts."""

from __future__ import annotations

import numpy as np
import pytest

from repro.generators import BCH3, EH3
from repro.rangesum.dmap import DMAP, DyadicMapper
from repro.rangesum.multidim import ProductDMAP, ProductGenerator
from repro.sketch.ams import SketchScheme
from repro.sketch.atomic import (
    DMAPChannel,
    GeneratorChannel,
    ProductChannel,
    ProductDMAPChannel,
)
from repro.sketch.bulk import (
    bch3_bulk_interval_update,
    bulk_point_update,
    decompose_binary,
    decompose_quaternary,
    dmap_bulk_id_update,
    dmap_ids_for_intervals,
    dmap_ids_for_points,
    eh3_bulk_interval_update,
    product_bulk_point_update,
    product_dmap_bulk_point_update,
)

BITS = 10


@pytest.fixture
def intervals(rng):
    lows = rng.integers(0, 1 << BITS, size=30)
    highs = rng.integers(0, 1 << BITS, size=30)
    return [(int(min(a, b)), int(max(a, b))) for a, b in zip(lows, highs)]


def eh3_scheme(source):
    return SketchScheme.from_factory(
        lambda src: GeneratorChannel(EH3.from_source(BITS, src)), 2, 3, source
    )


def bch3_scheme(source):
    return SketchScheme.from_factory(
        lambda src: GeneratorChannel(BCH3.from_source(BITS, src)), 2, 3, source
    )


def dmap_scheme(source):
    return SketchScheme.from_factory(
        lambda src: DMAPChannel(DMAP.from_source(BITS, src)), 2, 3, source
    )


class TestDecomposition:
    def test_quaternary_piece_arrays(self):
        pieces = decompose_quaternary([(124, 197)])
        assert len(pieces.lows) == 5
        assert list(pieces.half_levels) == [1, 3, 1, 0, 0]
        assert list(pieces.weights) == [1.0] * 5

    def test_weights_repeat_per_piece(self):
        pieces = decompose_binary([(0, 3), (5, 5)], weights=[2.0, 7.0])
        assert list(pieces.weights) == [2.0, 7.0]

    def test_weight_count_checked(self):
        with pytest.raises(ValueError):
            decompose_binary([(0, 3)], weights=[1.0, 2.0])

    @pytest.mark.parametrize("quaternary", [True, False], ids=["quaternary", "binary"])
    def test_past_2_63_takes_the_scalar_covers(self, quaternary):
        # The grid stops at 2^63; the whole batch then falls back to the
        # scalar covers and must merge pieces exactly as the grid would.
        from repro.core.dyadic import minimal_dyadic_cover, minimal_quaternary_cover

        top = (1 << 64) - 1
        batch = [(5, 100), (1 << 63, top), (7, 90), ((1 << 63) + 3, top)]
        weights = [2.0, 3.0, 0.5, 4.0]
        decompose, scalar = (
            (decompose_quaternary, minimal_quaternary_cover)
            if quaternary
            else (decompose_binary, minimal_dyadic_cover)
        )
        expected: dict = {}
        for (low, high), weight in zip(batch, weights):
            for piece in scalar(low, high):
                key = (piece.low, piece.level >> 1 if quaternary else piece.level)
                expected[key] = expected.get(key, 0.0) + weight
        pieces = decompose(batch, weights)
        levels = pieces.half_levels if quaternary else pieces.levels
        got = list(zip(pieces.lows.tolist(), levels.tolist(), pieces.weights.tolist()))
        assert got == sorted((low, level, w) for (low, level), w in expected.items())


class TestEH3Bulk:
    def test_matches_scalar_updates(self, source, intervals):
        scheme = eh3_scheme(source)
        bulk = scheme.sketch()
        eh3_bulk_interval_update(bulk, decompose_quaternary(intervals))
        scalar = scheme.sketch()
        for bounds in intervals:
            scalar.update_interval(bounds)
        assert np.allclose(bulk.values(), scalar.values())

    def test_weighted(self, source, intervals):
        weights = [float(k + 1) for k in range(len(intervals))]
        scheme = eh3_scheme(source)
        bulk = scheme.sketch()
        eh3_bulk_interval_update(
            bulk, decompose_quaternary(intervals, weights)
        )
        scalar = scheme.sketch()
        for bounds, w in zip(intervals, weights):
            scalar.update_interval(bounds, w)
        assert np.allclose(bulk.values(), scalar.values())

    def test_wrong_channel_rejected(self, source, intervals):
        scheme = bch3_scheme(source)
        with pytest.raises(TypeError):
            eh3_bulk_interval_update(
                scheme.sketch(), decompose_quaternary(intervals)
            )


class TestBCH3Bulk:
    def test_matches_scalar_updates(self, source, intervals):
        scheme = bch3_scheme(source)
        bulk = scheme.sketch()
        bch3_bulk_interval_update(bulk, decompose_binary(intervals))
        scalar = scheme.sketch()
        for bounds in intervals:
            scalar.update_interval(bounds)
        assert np.allclose(bulk.values(), scalar.values())

    def test_wrong_channel_rejected(self, source, intervals):
        scheme = eh3_scheme(source)
        with pytest.raises(TypeError):
            bch3_bulk_interval_update(
                scheme.sketch(), decompose_binary(intervals)
            )


class TestPointBulk:
    def test_matches_scalar(self, source, rng):
        scheme = eh3_scheme(source)
        points = rng.integers(0, 1 << BITS, size=50).astype(np.uint64)
        bulk = scheme.sketch()
        bulk_point_update(bulk, points)
        scalar = scheme.sketch()
        for p in points:
            scalar.update_point(int(p))
        assert np.allclose(bulk.values(), scalar.values())

    def test_weighted(self, source, rng):
        scheme = eh3_scheme(source)
        points = rng.integers(0, 1 << BITS, size=20).astype(np.uint64)
        weights = rng.normal(size=20)
        bulk = scheme.sketch()
        bulk_point_update(bulk, points, weights)
        scalar = scheme.sketch()
        for p, w in zip(points, weights):
            scalar.update_point(int(p), float(w))
        assert np.allclose(bulk.values(), scalar.values())


class TestDMAPBulk:
    def test_interval_ids_match_scalar(self, source, intervals):
        scheme = dmap_scheme(source)
        mapper = DyadicMapper(BITS)
        ids, weights = dmap_ids_for_intervals(mapper, intervals)
        bulk = scheme.sketch()
        dmap_bulk_id_update(bulk, ids, weights)
        scalar = scheme.sketch()
        for bounds in intervals:
            scalar.update_interval(bounds)
        assert np.allclose(bulk.values(), scalar.values())

    def test_point_ids_match_scalar(self, source, rng):
        scheme = dmap_scheme(source)
        mapper = DyadicMapper(BITS)
        points = rng.integers(0, 1 << BITS, size=40).astype(np.uint64)
        ids, weights = dmap_ids_for_points(mapper, points)
        bulk = scheme.sketch()
        dmap_bulk_id_update(bulk, ids, weights)
        scalar = scheme.sketch()
        for p in points:
            scalar.update_point(int(p))
        assert np.allclose(bulk.values(), scalar.values())

    def test_point_ids_weighted(self, source, rng):
        mapper = DyadicMapper(BITS)
        points = rng.integers(0, 1 << BITS, size=10).astype(np.uint64)
        weights = rng.normal(size=10)
        ids, flat = dmap_ids_for_points(mapper, points, weights)
        assert len(ids) == 10 * (BITS + 1)
        assert len(flat) == len(ids)

    def test_wrong_channel_rejected(self, source):
        scheme = eh3_scheme(source)
        with pytest.raises(TypeError):
            dmap_bulk_id_update(
                scheme.sketch(), np.array([1], dtype=np.uint64), np.ones(1)
            )


class TestProductBulk:
    def test_product_points_match_scalar(self, source, rng):
        scheme = SketchScheme.from_factory(
            lambda src: ProductChannel(ProductGenerator.eh3((6, 6), src)),
            2,
            2,
            source,
        )
        points = rng.integers(0, 64, size=(30, 2))
        bulk = scheme.sketch()
        product_bulk_point_update(bulk, points)
        scalar = scheme.sketch()
        for x, y in points:
            scalar.update_point((int(x), int(y)))
        assert np.allclose(bulk.values(), scalar.values())

    def test_product_dmap_points_match_scalar(self, source, rng):
        scheme = SketchScheme.from_factory(
            lambda src: ProductDMAPChannel(ProductDMAP.from_source((6, 6), src)),
            2,
            2,
            source,
        )
        points = rng.integers(0, 64, size=(15, 2))
        bulk = scheme.sketch()
        product_dmap_bulk_point_update(bulk, points)
        scalar = scheme.sketch()
        for x, y in points:
            scalar.update_point((int(x), int(y)))
        assert np.allclose(bulk.values(), scalar.values())

    def test_dimension_mismatch_rejected(self, source, rng):
        scheme = SketchScheme.from_factory(
            lambda src: ProductChannel(ProductGenerator.eh3((6, 6), src)),
            1,
            1,
            source,
        )
        with pytest.raises(ValueError):
            product_bulk_point_update(
                scheme.sketch(), rng.integers(0, 64, size=(5, 3))
            )


class TestConsolidation:
    """Duplicate-piece merging must work over the full 64-bit key range."""

    def test_high_lows_still_consolidate(self):
        # Regression: the old packed-key dedup ((low << 6) | level) wrapped
        # once low reached 2^57 and silently stopped merging duplicates.
        from repro.sketch.bulk import _consolidate_pieces

        low = np.uint64((1 << 61) + 64)
        lows = np.array([low, low, low + np.uint64(256)], dtype=np.uint64)
        levels = np.array([3, 3, 3], dtype=np.int64)
        weights = np.array([2.0, 5.0, 1.0])
        out_lows, out_levels, out_weights = _consolidate_pieces(
            lows, levels, weights
        )
        assert out_lows.tolist() == [int(low), int(low) + 256]
        assert out_levels.tolist() == [3, 3]
        assert out_weights.tolist() == [7.0, 1.0]

    def test_distinct_levels_not_merged(self):
        from repro.sketch.bulk import _consolidate_pieces

        low = np.uint64(1 << 60)
        lows = np.array([low, low], dtype=np.uint64)
        levels = np.array([2, 4], dtype=np.int64)
        weights = np.array([1.0, 1.0])
        out_lows, out_levels, out_weights = _consolidate_pieces(
            lows, levels, weights
        )
        assert len(out_lows) == 2

    def test_62_bit_bulk_update_matches_scalar(self, source):
        # End-to-end at domain_bits=62: repeated high intervals exercise
        # consolidation beyond 2^57 and must still match the scalar loop.
        bits = 62
        scheme = SketchScheme.from_factory(
            lambda src: GeneratorChannel(EH3.from_source(bits, src)),
            2,
            3,
            source,
        )
        base = (1 << 61) + (1 << 58)
        intervals = [
            (base, base + 1023),
            (base, base + 1023),  # duplicate: weights must merge
            (base + 4096, base + 8191),
        ]
        weights = [2.0, 3.0, 1.0]
        bulk = scheme.sketch()
        eh3_bulk_interval_update(
            bulk, decompose_quaternary(intervals, weights)
        )
        scalar = scheme.sketch()
        for bounds, weight in zip(intervals, weights):
            for row in scalar.cells:
                for cell in row:
                    cell.update_interval(bounds, weight)
        assert np.array_equal(bulk.values(), scalar.values())

    def test_62_bit_percell_update_matches_scalar(self, source):
        from repro.sketch.bulk import eh3_percell_interval_update

        bits = 62
        scheme = SketchScheme.from_factory(
            lambda src: GeneratorChannel(EH3.from_source(bits, src)),
            2,
            3,
            source,
        )
        base = (1 << 61) + (1 << 58)
        intervals = [(base, base + 255), (base, base + 255)]
        bulk = scheme.sketch()
        eh3_percell_interval_update(bulk, decompose_quaternary(intervals))
        scalar = scheme.sketch()
        for bounds in intervals:
            for row in scalar.cells:
                for cell in row:
                    cell.update_interval(bounds, 1.0)
        assert np.array_equal(bulk.values(), scalar.values())
