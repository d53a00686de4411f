"""Tests: the packed-plane kernels and the planes built on them.

Each kernel in :mod:`repro.sketch.kernels` picks a path from its input
(seed-table width, batch size, grid width, weights given or not, prime
Mersenne or not).  Every such choice is exercised on both sides and
compared bit for bit against the per-bit reference functions; every
registered plane is then compared against the per-cell scalar loop on
adversarial batches.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dyadic import dyadic_cover_arrays, quaternary_cover_arrays
from repro.generators import SeedSource
from repro.schemes import all_specs, get_spec
from repro.sketch.ams import SketchScheme
from repro.sketch.atomic import GeneratorChannel
from repro.sketch.kernels import (
    SMALL_BATCH,
    bit_sums,
    generic_poly_residues,
    pack_counter_bits,
    packed_linear_parity,
    parity_kernel,
    poly_sign_kernel,
    unpack_counter_bits,
    unweighted_bit_sums,
    weighted_bit_sums,
)
from repro.sketch.plane import counter_plane, plane_decision

BITS = 10

# BCH5's O(n^2) per-bit seeding wants a narrower test domain.
_SCHEME_BITS = {"bch5": 8}

PLANE_SCHEMES = [spec.name for spec in all_specs() if spec.plane is not None]

#: Counter counts on each side of the one-word (<= 64 counters) grid path.
GRID_COUNTERS = {"one-word": 40, "multi-word": 200}

PLANE_GRIDS = [(s, g) for s in PLANE_SCHEMES for g in GRID_COUNTERS]


def _scheme(name, medians=2, averages=3, seed=0xBADC0DE, bits=None):
    spec = get_spec(name)
    bits = bits or _SCHEME_BITS.get(name, BITS)
    return SketchScheme.from_factory(
        lambda src: GeneratorChannel(spec.factory(bits, src)),
        medians,
        averages,
        SeedSource(seed),
    )


def _scalar_point_values(scheme, points, weights):
    totals = []
    for row in scheme.channels:
        for channel in row:
            total = 0.0
            for point, weight in zip(points, weights):
                total += weight * channel.point(int(point))
            totals.append(total)
    return np.array(totals)


def _scalar_interval_values(scheme, intervals, weights):
    totals = []
    for row in scheme.channels:
        for channel in row:
            total = 0.0
            for bounds, weight in zip(intervals, weights):
                total += weight * channel.interval(bounds)
            totals.append(total)
    return np.array(totals)


def _adversarial_points(bits, size, rng):
    """Domain edges, duplicates, and random interior points."""
    top = (1 << bits) - 1
    edges = np.array([0, 0, top, top, 1, top - 1], dtype=np.uint64)
    interior = rng.integers(0, top + 1, size=size, dtype=np.uint64)
    return np.concatenate([edges, interior, edges])


def _packed_batch(rng, rows, counters):
    """A random packed sign-bit batch over ``counters`` counters."""
    return pack_counter_bits(rng.integers(0, 2, size=(rows, counters)))


@pytest.mark.parametrize(
    "counters", GRID_COUNTERS.values(), ids=GRID_COUNTERS.keys()
)
class TestParityKernel:
    @pytest.mark.parametrize("n_bits", [8, 9, 20])
    def test_matches_per_bit_reference(self, counters, n_bits, rng):
        # 8 bits stays on the per-bit pass; 9 and 20 build byte tables
        # (two and three index bytes).
        table = pack_counter_bits(rng.integers(0, 2, size=(n_bits, counters)))
        top = (1 << n_bits) - 1
        indices = np.concatenate(
            [
                np.array([0, top, 1, top - 1], dtype=np.uint64),
                rng.integers(0, top + 1, size=300, dtype=np.uint64),
            ]
        )
        got = parity_kernel(table)(indices)
        assert np.array_equal(got, packed_linear_parity(indices, table))

    def test_empty_batch(self, counters, rng):
        table = pack_counter_bits(rng.integers(0, 2, size=(12, counters)))
        got = parity_kernel(table)(np.array([], dtype=np.uint64))
        assert got.shape == (0, table.shape[1])


@pytest.mark.parametrize(
    "counters", GRID_COUNTERS.values(), ids=GRID_COUNTERS.keys()
)
# 33-255 unweighted rows take the byte-lane count, 256 the next path.
@pytest.mark.parametrize(
    "rows", [0, SMALL_BATCH, SMALL_BATCH + 1, 255, 256, 500]
)
class TestBitSums:
    def _unpacked(self, packed):
        shifts = np.arange(64, dtype=np.uint64)
        bits = (packed[:, :, np.newaxis] >> shifts) & np.uint64(1)
        return bits.reshape(packed.shape[0], packed.shape[1] * 64).astype(
            np.float64
        )

    def test_unweighted_matches_reference(self, counters, rows, rng):
        packed = _packed_batch(rng, rows, counters)
        got = bit_sums(packed, None)
        assert np.array_equal(got, unweighted_bit_sums(packed))
        assert np.array_equal(got, self._unpacked(packed).sum(axis=0))

    def test_weighted_matches_reference(self, counters, rows, rng):
        packed = _packed_batch(rng, rows, counters)
        # Signed integer weights with dyadic scales, as interval pieces
        # carry: every partial sum is an exact float64 integer.
        weights = np.ldexp(
            rng.integers(-5, 6, size=rows).astype(np.float64),
            rng.integers(0, 12, size=rows),
        )
        got = bit_sums(packed, weights)
        assert np.array_equal(got, weighted_bit_sums(packed, weights))
        assert np.array_equal(got, weights @ self._unpacked(packed))

    def test_unit_weights_match_unweighted(self, counters, rows, rng):
        packed = _packed_batch(rng, rows, counters)
        assert np.array_equal(
            bit_sums(packed, np.ones(rows)), bit_sums(packed, None)
        )

    def test_unpack_inverts_pack(self, counters, rows, rng):
        bits = rng.integers(0, 2, size=(rows, counters))
        unpacked = unpack_counter_bits(pack_counter_bits(bits), counters)
        assert unpacked.shape == (rows, counters)
        assert np.array_equal(unpacked, bits)


class TestPolySignKernel:
    @pytest.mark.parametrize(
        "p",
        [(1 << 31) - 1, (1 << 61) - 1, 2053],
        ids=["mersenne-31", "mersenne-61", "non-mersenne"],
    )
    def test_matches_generic_reference(self, p, rng):
        counters = GRID_COUNTERS["multi-word"]
        coefficients = rng.integers(0, p, size=(counters, 4), dtype=np.uint64)
        points = np.concatenate(
            [
                np.array([0, 1, p - 1, p, p + 1], dtype=np.uint64),
                rng.integers(0, 1 << 40, size=300, dtype=np.uint64),
            ]
        )
        residues = generic_poly_residues(points, coefficients, p)
        expected = pack_counter_bits((residues & np.uint64(1)).T)
        got = poly_sign_kernel(coefficients, p)(points)
        assert np.array_equal(got, expected)


@pytest.mark.parametrize(
    "scheme_name,grid", PLANE_GRIDS, ids=[f"{s}-{g}" for s, g in PLANE_GRIDS]
)
class TestPlaneIdentity:
    """Every registered plane against the per-cell scalar loop."""

    def test_point_totals_match_scalar(self, scheme_name, grid, rng):
        scheme = _scheme(
            scheme_name, medians=2, averages=GRID_COUNTERS[grid] // 2
        )
        plane = counter_plane(scheme)
        assert plane is not None
        bits = plane.domain_bits
        # Large batch (histogram / adder-tree paths) with signed weights.
        points = _adversarial_points(bits, 200, rng)
        weights = rng.integers(-5, 6, size=points.size).astype(np.float64)
        got = plane.point_totals(points, weights)
        expected = _scalar_point_values(scheme, points, weights)
        assert np.array_equal(got, expected)
        # Small batch (direct unpack path).
        small = points[:7]
        got_small = plane.point_totals(small, weights[:7])
        assert np.array_equal(
            got_small, _scalar_point_values(scheme, small, weights[:7])
        )
        # Unweighted batch (popcount route).
        got_ones = plane.point_totals(points)
        assert np.array_equal(
            got_ones,
            _scalar_point_values(scheme, points, np.ones(points.size)),
        )

    def test_point_signs_match_generators(self, scheme_name, grid, rng):
        scheme = _scheme(
            scheme_name, medians=2, averages=GRID_COUNTERS[grid] // 2
        )
        plane = counter_plane(scheme)
        points = _adversarial_points(plane.domain_bits, 50, rng)
        signs = plane.point_signs(points)
        assert signs.shape == (points.size, plane.words)
        bits = unpack_counter_bits(signs, plane.counters)
        expected = np.array(
            [
                channel.generator.values(points)
                for row in scheme.channels
                for channel in row
            ]
        ).T
        assert np.array_equal(1 - 2 * bits.astype(np.int64), expected)
        assert np.array_equal(
            plane.point_totals(points), points.size - 2.0 * bits.sum(axis=0)
        )

    def test_empty_batch_is_zero(self, scheme_name, grid):
        plane = counter_plane(
            _scheme(scheme_name, medians=2, averages=GRID_COUNTERS[grid] // 2)
        )
        empty = np.array([], dtype=np.uint64)
        assert np.array_equal(plane.point_totals(empty), np.zeros(plane.counters))
        assert np.array_equal(
            plane.point_totals(empty, np.array([], dtype=np.float64)),
            np.zeros(plane.counters),
        )


class TestPlaneDecision:
    def test_decision_cached_per_scheme(self):
        scheme = _scheme("eh3")
        decision = plane_decision(scheme)
        assert plane_decision(scheme) is decision
        assert counter_plane(scheme) is decision.plane
        # A second grid over the same seeds builds its own decision.
        other = _scheme("eh3")
        assert plane_decision(other) is not decision
        assert np.array_equal(
            plane_decision(other).plane.point_totals(np.arange(16, dtype=np.uint64)),
            decision.plane.point_totals(np.arange(16, dtype=np.uint64)),
        )


@pytest.mark.parametrize(
    "grid", GRID_COUNTERS.keys(), ids=GRID_COUNTERS.keys()
)
class TestIntervalIdentity:
    def _intervals(self, bits, size, rng):
        top = (1 << bits) - 1
        lows = rng.integers(0, top + 1, size=size)
        highs = rng.integers(0, top + 1, size=size)
        pairs = [(int(min(a, b)), int(max(a, b))) for a, b in zip(lows, highs)]
        return pairs + [(0, top), (0, 0), (top, top)]

    def _grid_scheme(self, name, grid, bits=None):
        return _scheme(
            name, medians=2, averages=GRID_COUNTERS[grid] // 2, bits=bits
        )

    def test_eh3_quaternary_pieces(self, grid, rng):
        scheme = self._grid_scheme("eh3", grid)
        plane = counter_plane(scheme)
        intervals = self._intervals(BITS, 20, rng)
        weights = rng.integers(1, 5, size=len(intervals)).astype(np.float64)
        cover = quaternary_cover_arrays(
            [a for a, _ in intervals], [b for _, b in intervals]
        )
        got = plane.interval_totals(
            cover.lows, cover.levels >> 1, weights[cover.index]
        )
        expected = _scalar_interval_values(scheme, intervals, weights)
        assert np.array_equal(got, expected)

    def test_bch3_dyadic_pieces(self, grid, rng):
        scheme = self._grid_scheme("bch3", grid)
        plane = counter_plane(scheme)
        intervals = self._intervals(BITS, 20, rng)
        weights = rng.integers(1, 5, size=len(intervals)).astype(np.float64)
        cover = dyadic_cover_arrays(
            [a for a, _ in intervals], [b for _, b in intervals]
        )
        got = plane.interval_totals(cover.lows, cover.levels, weights[cover.index])
        expected = _scalar_interval_values(scheme, intervals, weights)
        assert np.array_equal(got, expected)

    def test_wide_domain_eh3_bit_identical(self, grid):
        # 62-bit bounds exercise the >=2^57 packed-key edge of the bulk
        # dedup path and the widest uint64 arithmetic the kernels see.
        top = (1 << 62) - 1
        bounds = [(0, top), (123, top - 5), (1 << 57, 1 << 61)]
        scheme = self._grid_scheme("eh3", grid, bits=62)
        fast = scheme.sketch()
        for pair in bounds:
            fast.update_interval(pair, 2.0)
        expected = _scalar_interval_values(scheme, bounds, [2.0] * len(bounds))
        assert np.array_equal(fast.values().ravel(), expected)
