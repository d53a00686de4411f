"""Vectorized bulk sketching: one decomposition, many counters.

The experiment harness streams tens of thousands of intervals into grids of
dozens of atomic counters.  Doing that through the scalar channel API costs
``pieces x cells`` Python-level operations; this module exploits two
factorizations to keep everything in numpy:

1. the *dyadic decomposition* of an interval (binary or quaternary cover,
   DMAP ids, containing ids) depends only on the interval -- never on the
   seed -- so it is computed once (by the batched cover kernels of
   :mod:`repro.core.dyadic`) and shared by every counter;
2. the per-piece closed forms are expressible over arrays:

   * EH3 (Theorem 2): ``sum_piece = sign_j * 2^j * xi(low)`` where
     ``sign_j`` depends only on the seed and the level;
   * BCH3: ``sum_piece = 2^level * xi(low)`` if the seed's low ``level``
     bits vanish, else 0;
   * DMAP: a flat array of dyadic ids fed straight through
     ``Generator.values``.

Since the structure-of-arrays planes of :mod:`repro.sketch.plane` pack all
seeds of a grid into bit-sliced tables, the per-counter loop is gone too:
each bulk function asks the scheme for its plane and updates the whole grid
in one batched pass, falling back to one vectorized pass per channel for
grids the plane does not cover.  Either way the per-counter totals are
committed to the sketch's counter array in one add.
``eh3_percell_interval_update`` keeps the per-channel loop explicitly -- it
is the baseline the bulk benchmarks measure the plane against.

Every bulk function is equivalent to a loop of scalar channel updates (the
test-suite asserts this) -- they are pure fast paths.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro import obs
from repro.core.dyadic import (
    CoverArrays,
    dyadic_cover_arrays,
    minimal_dyadic_cover,
    minimal_quaternary_cover,
    quaternary_cover_arrays,
)
from repro.generators.base import Generator
from repro.rangesum.batched import dmap_point_id_table
from repro.rangesum.dmap import DyadicMapper
from repro.schemes import UnsupportedSchemeError, channel_kind, spec_for
from repro.sketch.ams import SketchMatrix
from repro.sketch.atomic import points_total
from repro.sketch.plane import add_totals, counter_plane

__all__ = [
    "QuaternaryPieces",
    "decompose_quaternary",
    "BinaryPieces",
    "decompose_binary",
    "eh3_bulk_interval_update",
    "eh3_percell_interval_update",
    "bch3_bulk_interval_update",
    "bulk_point_update",
    "dmap_ids_for_intervals",
    "dmap_ids_for_points",
    "dmap_bulk_id_update",
    "product_bulk_point_update",
    "product_dmap_bulk_point_update",
]


class QuaternaryPieces:
    """Flattened quaternary covers of a batch of intervals."""

    def __init__(self, lows: np.ndarray, half_levels: np.ndarray,
                 weights: np.ndarray) -> None:
        self.lows = lows
        self.half_levels = half_levels
        self.weights = weights


class BinaryPieces:
    """Flattened binary covers of a batch of intervals."""

    def __init__(self, lows: np.ndarray, levels: np.ndarray,
                 weights: np.ndarray) -> None:
        self.lows = lows
        self.levels = levels
        self.weights = weights


def _piece_weights(
    weights: Sequence[float] | np.ndarray | None,
    intervals: Sequence[tuple[int, int]],
    counts: np.ndarray | Sequence[int],
) -> np.ndarray:
    if weights is None:
        per_interval = np.ones(len(intervals), dtype=np.float64)
    else:
        per_interval = np.asarray(weights, dtype=np.float64)
        if len(per_interval) != len(intervals):
            raise ValueError("one weight per interval is required")
    return np.repeat(per_interval, counts)


def _interval_endpoints(
    intervals: Sequence[tuple[int, int]],
) -> tuple[np.ndarray, np.ndarray]:
    bounds = np.asarray(intervals, dtype=np.uint64)
    if bounds.size == 0:
        empty = np.zeros(0, dtype=np.uint64)
        return empty, empty.copy()
    if bounds.ndim != 2 or bounds.shape[1] != 2:
        raise ValueError("intervals must be (low, high) pairs")
    return bounds[:, 0], bounds[:, 1]


def _batch_cover(
    intervals: Sequence[tuple[int, int]], quaternary: bool
) -> CoverArrays:
    """The batch's covers from the grid kernel, or per interval past 2^63.

    End-points at or above 2^63 (or past uint64) take the scalar
    constructions, which work over arbitrary Python ints.
    """
    try:
        alphas, betas = _interval_endpoints(intervals)
        if quaternary:
            cover = quaternary_cover_arrays(alphas, betas)
        else:
            cover = dyadic_cover_arrays(alphas, betas)
    except OverflowError:
        scalar = minimal_quaternary_cover if quaternary else minimal_dyadic_cover
        covers = [scalar(int(low), int(high)) for low, high in intervals]
        cover = CoverArrays(
            np.asarray([p.low for c in covers for p in c], dtype=np.uint64),
            np.asarray([p.level for c in covers for p in c], dtype=np.int64),
            np.repeat(np.arange(len(covers), dtype=np.int64), [len(c) for c in covers]),
            len(covers),
        )
    obs.counter("sketch.bulk.covers_total").inc(len(intervals))
    obs.counter("sketch.bulk.pieces_total").inc(int(cover.lows.size))
    return cover


def decompose_quaternary(
    intervals: Sequence[tuple[int, int]],
    weights: Sequence[float] | np.ndarray | None = None,
) -> QuaternaryPieces:
    """Quaternary covers of all intervals, flattened into piece arrays.

    Runs on the batched cover kernel (no per-piece ``DyadicInterval``
    allocation); end-points at or above 2^63 take the scalar route.
    Duplicate pieces are merged here, once, so every downstream consumer
    (per-cell baseline, plane kernels) shares the work.
    """
    cover = _batch_cover(intervals, quaternary=True)
    return QuaternaryPieces(
        *_consolidate_pieces(
            cover.lows,
            cover.levels >> 1,
            _piece_weights(weights, intervals, cover.counts()),
        )
    )


def decompose_binary(
    intervals: Sequence[tuple[int, int]],
    weights: Sequence[float] | np.ndarray | None = None,
) -> BinaryPieces:
    """Binary covers of all intervals, flattened into piece arrays.

    Runs on the batched cover kernel; end-points at or above 2^63 take
    the scalar route.  Duplicate pieces are merged here, once, so every
    downstream consumer shares the work.
    """
    cover = _batch_cover(intervals, quaternary=False)
    return BinaryPieces(
        *_consolidate_pieces(
            cover.lows,
            cover.levels,
            _piece_weights(weights, intervals, cover.counts()),
        )
    )


def _consolidate(
    keys: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Aggregate duplicate keys, summing their weights.

    Bulk batches repeat dyadic ids and cover pieces heavily (points share
    high-level ancestors, segments share popular pieces); deduplicating
    before the per-counter dot products cuts each counter's work without
    changing any sum.
    """
    unique, inverse = np.unique(keys, return_inverse=True)
    summed = np.bincount(inverse, weights=weights, minlength=len(unique))
    return unique, summed


def _consolidate_pieces(
    lows: np.ndarray, levels: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge duplicate ``(low, level)`` pieces, summing their weights.

    Run once, at decomposition time, so every consumer of the piece
    arrays (per-cell baseline, plane updates) shares one sort instead of
    re-deduplicating per call.
    When both coordinates fit one word the sort runs on a single packed
    key; wider ``lows`` (at or beyond 2^57) take a lexsort, so the merge
    never silently stops applying.
    """
    if lows.size == 0:
        return lows, levels, weights
    if int(lows.max()) < (1 << 57) and int(levels.max()) < 64:
        keys = (lows << np.uint64(6)) | levels.astype(np.uint64)
        order = np.argsort(keys, kind="stable")
    else:
        order = np.lexsort((levels, lows))
    lows = lows[order]
    levels = levels[order]
    weights = weights[order]
    fresh = np.empty(lows.size, dtype=bool)
    fresh[0] = True
    fresh[1:] = (lows[1:] != lows[:-1]) | (levels[1:] != levels[:-1])
    starts = np.flatnonzero(fresh)
    summed = np.add.reduceat(weights, starts)
    obs.counter("sketch.bulk.pieces_deduped_total").inc(
        int(lows.size - starts.size)
    )
    return lows[starts], levels[starts], summed


def _require_interval_kind(channel: Any, kind: str, caller: str) -> None:
    """Reject a channel whose scheme does not decompose into ``kind`` pieces.

    The registry, not a hard-coded generator list, decides eligibility:
    a channel qualifies when its generator's registered spec declares the
    matching ``interval_kind``.
    """
    is_generator_channel = channel_kind(channel) == "generator"
    spec = spec_for(channel.generator) if is_generator_channel else None
    if spec is None or spec.interval_kind != kind:
        got = type(channel).__name__
        if is_generator_channel:
            got = type(channel.generator).__name__
        raise UnsupportedSchemeError(
            f"{caller} needs channels over a scheme with "
            f"{kind!r} interval decomposition; got {got}"
        )


def _eh3_piece_sums(
    generator: Any, pieces: QuaternaryPieces
) -> np.ndarray:
    """Per-piece Theorem-2 sums for one EH3 generator (vectorized)."""
    scales = generator.signed_scale_array()
    values = generator.values(pieces.lows).astype(np.float64)
    return values * scales[pieces.half_levels]


def eh3_percell_interval_update(
    sketch: SketchMatrix,
    pieces: QuaternaryPieces,
) -> None:
    """The per-cell EH3 interval loop: one vectorized pass per counter.

    Kept as the explicit counter-loop path the bulk benchmarks use as a
    baseline; :func:`eh3_bulk_interval_update` supersedes it with the
    whole-grid plane kernel.  Piece batches arrive deduplicated from
    :func:`decompose_quaternary`, so no per-call consolidation is needed.
    """

    def piece_total(channel: Any) -> float:
        _require_interval_kind(channel, "quaternary", "eh3_bulk_interval_update")
        sums = _eh3_piece_sums(channel.generator, pieces)
        return float(np.dot(sums, pieces.weights))

    sketch.table += sketch.scheme.channel_totals(piece_total)


def eh3_bulk_interval_update(
    sketch: SketchMatrix,
    pieces: QuaternaryPieces,
) -> None:
    """Stream a pre-decomposed interval batch into every EH3 counter.

    Equivalent to calling ``update_interval`` per interval per cell, in a
    handful of batched passes for the *whole grid* (the packed plane of
    :class:`repro.sketch.plane.EH3Plane`).  Piece batches arrive
    deduplicated from :func:`decompose_quaternary`.
    """
    plane = counter_plane(sketch.scheme)
    if getattr(plane, "interval_kind", None) != "quaternary":
        obs.counter("sketch.bulk.fallback_total").inc()
        eh3_percell_interval_update(sketch, pieces)
        return
    obs.counter("sketch.bulk.plane_total").inc()
    with obs.span(
        "sketch.plane.interval_totals", plane=type(plane).__name__
    ):
        add_totals(
            sketch,
            plane.interval_totals(
                pieces.lows, pieces.half_levels, pieces.weights
            ),
        )


def bch3_bulk_interval_update(
    sketch: SketchMatrix,
    pieces: BinaryPieces,
) -> None:
    """Stream a pre-decomposed interval batch into every BCH3 counter.

    A binary dyadic sum is ``2^level * xi(low)`` when the seed's low
    ``level`` bits are zero, else exactly 0 -- evaluated with the grid's
    packed plane when available, else one level-indexed mask table per
    generator (cached on the generator instance).
    """
    plane = counter_plane(sketch.scheme)
    if getattr(plane, "interval_kind", None) == "binary":
        obs.counter("sketch.bulk.plane_total").inc()
        with obs.span(
            "sketch.plane.interval_totals", plane=type(plane).__name__
        ):
            add_totals(
                sketch,
                plane.interval_totals(
                    pieces.lows, pieces.levels, pieces.weights
                ),
            )
        return
    obs.counter("sketch.bulk.fallback_total").inc()

    def piece_total(channel: Any) -> float:
        _require_interval_kind(channel, "binary", "bch3_bulk_interval_update")
        generator = channel.generator
        alive = generator.alive_level_array()
        values = generator.values(pieces.lows).astype(np.float64)
        scales = np.ldexp(alive[pieces.levels], pieces.levels)
        return float(np.dot(values * scales, pieces.weights))

    sketch.table += sketch.scheme.channel_totals(piece_total)


def bulk_point_update(
    sketch: SketchMatrix,
    items: np.ndarray,
    weights: Sequence[float] | np.ndarray | None = None,
) -> None:
    """Stream a 1-D point batch into every generator-channel counter."""
    items = np.asarray(items, dtype=np.uint64)
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != items.shape:
            raise ValueError("weights must match items element-wise")
    plane = counter_plane(sketch.scheme)
    if getattr(plane, "plane_kind", None) == "generator":
        obs.counter("sketch.bulk.plane_total").inc()
        with obs.span(
            "sketch.plane.point_totals", plane=type(plane).__name__
        ):
            add_totals(sketch, plane.point_totals(items, weights))
        return
    obs.counter("sketch.bulk.fallback_total").inc()

    def point_total(channel: Any) -> float:
        if channel_kind(channel) != "generator":
            raise TypeError("bulk_point_update needs generator channels")
        return points_total(channel, items, weights)

    sketch.table += sketch.scheme.channel_totals(point_total)


def dmap_ids_for_intervals(
    mapper: DyadicMapper,
    intervals: Sequence[tuple[int, int]],
    weights: Sequence[float] | np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Flattened DMAP cover ids (and weights) of an interval batch."""
    alphas, betas = _interval_endpoints(intervals)
    ids, owner, _ = mapper.interval_id_arrays(alphas, betas)
    if weights is None:
        flat = np.ones(ids.shape, dtype=np.float64)
    else:
        per_interval = np.asarray(weights, dtype=np.float64)
        if len(per_interval) != len(intervals):
            raise ValueError("one weight per interval is required")
        flat = per_interval[owner]
    return ids, flat


def dmap_ids_for_points(
    mapper: DyadicMapper,
    points: np.ndarray,
    weights: Sequence[float] | np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Flattened DMAP containing-ids of a point batch (vectorized).

    Every point contributes ``n + 1`` ids, one per level:
    ``2^(n - j) + (point >> j)``.
    """
    points = np.asarray(points, dtype=np.uint64)
    table = dmap_point_id_table(mapper, points)
    ids = table.ravel()
    if weights is None:
        flat = np.ones(ids.shape, dtype=np.float64)
    else:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != points.shape:
            raise ValueError("weights must match points element-wise")
        flat = np.tile(weights, table.shape[0])
    return ids, flat


def dmap_bulk_id_update(
    sketch: SketchMatrix, ids: np.ndarray, weights: np.ndarray
) -> None:
    """Stream pre-mapped dyadic ids into every DMAP counter.

    Duplicate ids are merged once, up front, for all counters.
    """
    ids, weights = _consolidate(np.asarray(ids, dtype=np.uint64), weights)
    ids = ids.astype(np.uint64)
    plane = counter_plane(sketch.scheme)
    if getattr(plane, "plane_kind", None) == "dmap":
        obs.counter("sketch.bulk.plane_total").inc()
        with obs.span(
            "sketch.plane.id_totals", plane=type(plane).__name__
        ):
            add_totals(sketch, plane.id_totals(ids, weights))
        return
    obs.counter("sketch.bulk.fallback_total").inc()

    def id_total(channel: Any) -> float:
        if channel_kind(channel) != "dmap":
            raise TypeError("dmap_bulk_id_update needs DMAP channels")
        generator: Generator = channel.dmap.generator
        values = generator.values(ids).astype(np.float64)
        return float(np.dot(values, weights))

    sketch.table += sketch.scheme.channel_totals(id_total)


def product_bulk_point_update(
    sketch: SketchMatrix,
    points: np.ndarray,
    weights: Sequence[float] | np.ndarray | None = None,
) -> None:
    """Stream a d-dimensional point batch into product-generator counters.

    ``points`` is a ``(count, d)`` integer array; the contribution of each
    point is the product of its per-axis xi values.
    """
    points = np.asarray(points)
    if points.ndim != 2:
        raise ValueError("points must be a (count, d) array")
    columns = [points[:, k].astype(np.uint64) for k in range(points.shape[1])]
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)

    def point_total(channel: Any) -> float:
        if channel_kind(channel) != "product":
            raise TypeError("product_bulk_point_update needs product channels")
        factors = channel.generator.factors
        if len(factors) != points.shape[1]:
            raise ValueError("point dimensionality mismatch")
        contribution = np.ones(len(points), dtype=np.float64)
        for factor, column in zip(factors, columns):
            contribution *= factor.values(column).astype(np.float64)
        if weights is None:
            return float(contribution.sum())
        return float(np.dot(contribution, weights))

    sketch.table += sketch.scheme.channel_totals(point_total)


def _dmap_axis_contributions(
    generator: Generator, id_table: np.ndarray
) -> np.ndarray:
    """Per-point sums of xi over a precomputed containing-id table."""
    return generator.values(id_table).astype(np.float64).sum(axis=0)


def product_dmap_bulk_point_update(
    sketch: SketchMatrix,
    points: np.ndarray,
    weights: Sequence[float] | np.ndarray | None = None,
) -> None:
    """Stream a d-dimensional point batch into product-DMAP counters.

    A d-dimensional point's contribution factorizes into per-axis sums
    over the ``n + 1`` containing dyadic ids.  The id tables depend only
    on the points, so they are built once per axis and shared by every
    cell -- each cell then costs ``d`` vectorized generator sweeps.
    """
    points = np.asarray(points)
    if points.ndim != 2:
        raise ValueError("points must be a (count, d) array")
    columns = [points[:, k].astype(np.uint64) for k in range(points.shape[1])]
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
    id_tables: dict[tuple[int, int], np.ndarray] = {}

    def point_total(channel: Any) -> float:
        if channel_kind(channel) != "product_dmap":
            raise TypeError("product_dmap_bulk_point_update needs product-DMAP channels")
        dmaps = channel.dmap.dmaps
        if len(dmaps) != points.shape[1]:
            raise ValueError("point dimensionality mismatch")
        contribution = np.ones(len(points), dtype=np.float64)
        for axis, (dmap, column) in enumerate(zip(dmaps, columns)):
            key = (axis, dmap.mapper.domain_bits)
            table = id_tables.get(key)
            if table is None:
                table = dmap_point_id_table(dmap.mapper, column)
                id_tables[key] = table
            contribution *= _dmap_axis_contributions(dmap.generator, table)
        if weights is None:
            return float(contribution.sum())
        return float(np.dot(contribution, weights))

    sketch.table += sketch.scheme.channel_totals(point_total)
