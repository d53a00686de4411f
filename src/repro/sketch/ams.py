"""AGMS estimators: medians of averages of atomic sketches (Section 2.1).

An ``(epsilon, delta)`` estimator for ``|R join S|`` keeps a grid of
independently-seeded atomic sketches: ``averages`` copies are averaged to
shrink the variance (their count proportional to ``Var(X) / (eps^2 E[X]^2)``)
and the median across ``medians`` rows boosts the confidence to ``1 -
delta`` (count proportional to ``log(1/delta)``).

:class:`SketchScheme` owns the grid of channels (the seeds); every relation
sketched against the same scheme is comparable, and
:func:`repro.query.product` implements the median-of-averages combination
of ``X_R * X_S``.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Sequence

import numpy as np

from repro import obs
from repro.generators.base import Generator
from repro.generators.seeds import SeedSource
from repro.sketch.atomic import AtomicChannel, AtomicSketch, GeneratorChannel

__all__ = [
    "SketchScheme",
    "SketchMatrix",
    "plane_interval_totals",
    "recommended_grid",
]


def recommended_grid(
    epsilon: float, delta: float, variance_ratio: float = 2.0
) -> tuple[int, int]:
    """Grid dimensions for a target ``(epsilon, delta)`` guarantee.

    ``variance_ratio`` approximates ``Var(X) / E[X]^2``; the classical
    bounds give ``averages = ceil(8 * ratio / eps^2)`` (Chebyshev with a
    comfortable constant) and ``medians = ceil(4.5 * ln(1/delta))``.
    """
    if not 0 < epsilon < 1 or not 0 < delta < 1:
        raise ValueError("epsilon and delta must lie in (0, 1)")
    averages = max(1, math.ceil(8.0 * variance_ratio / epsilon**2))
    medians = max(1, math.ceil(4.5 * math.log(1.0 / delta)))
    return medians, averages


class SketchScheme:
    """A ``medians x averages`` grid of independently-seeded channels."""

    def __init__(self, channels: Sequence[Sequence[AtomicChannel]]) -> None:
        if not channels or not channels[0]:
            raise ValueError("the channel grid must be non-empty")
        width = len(channels[0])
        if any(len(row) != width for row in channels):
            raise ValueError("all rows must have the same number of channels")
        self.channels = tuple(tuple(row) for row in channels)

    @classmethod
    def from_factory(
        cls,
        factory: Callable[[SeedSource], AtomicChannel],
        medians: int,
        averages: int,
        source: SeedSource,
    ) -> "SketchScheme":
        """Build the grid by drawing one fresh channel per cell."""
        if medians <= 0 or averages <= 0:
            raise ValueError("medians and averages must be positive")
        return cls(
            [[factory(source) for _ in range(averages)] for _ in range(medians)]
        )

    @classmethod
    def from_generators(
        cls,
        factory: Callable[[SeedSource], Generator],
        medians: int,
        averages: int,
        source: SeedSource,
    ) -> "SketchScheme":
        """Grid of :class:`GeneratorChannel` over a generator factory."""
        return cls.from_factory(
            lambda src: GeneratorChannel(factory(src)), medians, averages, source
        )

    @property
    def medians(self) -> int:
        """Number of rows (median candidates)."""
        return len(self.channels)

    @property
    def averages(self) -> int:
        """Number of columns (averaged copies per row)."""
        return len(self.channels[0])

    @property
    def counters(self) -> int:
        """Total number of atomic counters -- the sketch's memory in words."""
        return self.medians * self.averages

    def sketch(self) -> "SketchMatrix":
        """A fresh all-zero sketch of some relation under this scheme."""
        return SketchMatrix(self)

    def plane(self) -> Any:
        """The packed structure-of-arrays plane of this grid's seeds.

        Built lazily, cached on the scheme, shared by every sketch of it;
        ``None`` when the grid mixes channel kinds the packed kernels do
        not cover (see :func:`repro.sketch.plane.counter_plane`).
        """
        from repro.sketch.plane import counter_plane

        return counter_plane(self)


def plane_interval_totals(plane: Any, bounds: Any) -> np.ndarray | None:
    """Unit-weight per-counter sums of one 1-D interval, or ``None``.

    Dispatches on the plane's declared ``interval_kind`` -- the piece
    shape its ``interval_totals`` consumes -- so any registered scheme's
    kernel participates without this module knowing it.  ``None`` (no
    plane, no interval kernel, or bounds the scalar path owns) means the
    caller sums the channels' own range-sums instead.
    """
    from repro.core.dyadic import dyadic_cover_arrays, quaternary_cover_arrays

    kind = getattr(plane, "interval_kind", None)
    if kind is None:
        return None
    try:
        alpha, beta = bounds
    except (TypeError, ValueError):
        return None
    if not isinstance(alpha, (int, np.integer)) or not isinstance(
        beta, (np.integer, int)
    ):
        return None
    if alpha < 0 or beta >= (1 << 63):
        return None  # scalar path owns the error/exotic-domain cases
    if kind == "quaternary":
        cover = quaternary_cover_arrays([alpha], [beta])
        return plane.interval_totals(cover.lows, cover.levels >> 1)
    if kind == "binary":
        cover = dyadic_cover_arrays([alpha], [beta])
        return plane.interval_totals(cover.lows, cover.levels)
    if kind == "endpoints":
        return plane.interval_totals([alpha], [beta])
    return None


class SketchMatrix:
    """The grid of atomic counters summarizing one relation."""

    def __init__(self, scheme: SketchScheme) -> None:
        self.scheme = scheme
        self.cells = [
            [AtomicSketch(channel) for channel in row]
            for row in scheme.channels
        ]

    @classmethod
    def from_values(cls, scheme: SketchScheme, values: Any) -> "SketchMatrix":
        """A sketch of ``scheme`` holding a ``(medians, averages)`` grid."""
        sketch = cls(scheme)
        for cells_row, values_row in zip(sketch.cells, values):
            for cell, value in zip(cells_row, values_row):
                cell.value = float(value)
        return sketch

    def update_point(self, item: Any, weight: float = 1.0) -> None:
        """Stream one point into every atomic counter.

        When the scheme's packed plane covers the grid, all counters are
        updated in one pass; the result is bit-for-bit what the per-cell
        loop produces (the per-counter contribution is an exact integer,
        scaled by ``weight`` exactly once either way).
        """
        if isinstance(item, (int, np.integer)):
            plane = self.scheme.plane()
            if plane is not None:
                totals = plane.point_totals(np.asarray([item]))
                self._add_scaled(totals, weight)
                return
        for row in self.cells:
            for cell in row:
                cell.update_point(item, weight)

    def update_interval(self, bounds: Any, weight: float = 1.0) -> None:
        """Stream one interval/rectangle into every atomic counter.

        1-D intervals on plane-covered grids decompose once and update
        every counter in one batched pass -- the fast path behind
        ``StreamProcessor.process_interval``.  Bit-for-bit identical to
        the per-cell loop: the plane returns exact integer range-sums,
        scaled by ``weight`` exactly once, like the scalar channels.
        """
        totals = plane_interval_totals(self.scheme.plane(), bounds)
        if totals is not None:
            self._add_scaled(totals, weight)
            return
        for row in self.cells:
            for cell in row:
                cell.update_interval(bounds, weight)

    def _add_scaled(self, totals: np.ndarray, weight: float) -> None:
        position = 0
        for row in self.cells:
            for cell in row:
                cell.value += weight * float(totals[position])
                position += 1

    def update_points(
        self,
        items: Any,
        weights: Sequence[float] | np.ndarray | None = None,
    ) -> None:
        """Stream a whole point batch into the grid in one plane pass.

        Falls back to per-cell vectorized updates (and, for product
        channels, a per-point loop) when no plane covers the grid.
        Equivalent to ``update_point`` per item; exact for integer
        weights, within float64 rounding otherwise.
        """
        plane = self.scheme.plane()
        if plane is not None:
            from repro.sketch.plane import add_totals

            obs.counter("sketch.bulk.plane_total").inc()
            with obs.span(
                "sketch.plane.point_totals", plane=type(plane).__name__
            ):
                add_totals(self, plane.point_totals(items, weights))
            return
        obs.counter("sketch.bulk.fallback_total").inc()
        items = np.asarray(items)
        if items.ndim == 1:
            for row in self.cells:
                for cell in row:
                    cell.update_points(items, weights)
            return
        for position, item in enumerate(items):
            scale = 1.0 if weights is None else float(weights[position])
            self.update_point(tuple(int(x) for x in item), scale)

    def update_intervals(
        self,
        intervals: Any,
        weights: Sequence[float] | np.ndarray | None = None,
    ) -> None:
        """Stream a whole 1-D interval batch into the grid.

        One batched decomposition plus one plane pass for the entire
        ``intervals x counters`` workload; falls back to per-interval
        updates otherwise.  Equivalent to ``update_interval`` per
        interval; exact for integer weights.
        """
        from repro.sketch.plane import add_totals

        plane = self.scheme.plane()
        kind = getattr(plane, "interval_kind", None)
        if kind in ("quaternary", "binary"):
            from repro.sketch import bulk

            if kind == "quaternary":
                bulk.eh3_bulk_interval_update(
                    self, bulk.decompose_quaternary(intervals, weights)
                )
            else:
                bulk.bch3_bulk_interval_update(
                    self, bulk.decompose_binary(intervals, weights)
                )
            return
        if kind == "endpoints":
            bounds = np.asarray(intervals, dtype=np.uint64).reshape(-1, 2)
            add_totals(
                self, plane.interval_totals(bounds[:, 0], bounds[:, 1], weights)
            )
            return
        for position, bounds in enumerate(intervals):
            scale = 1.0 if weights is None else float(weights[position])
            self.update_interval(tuple(bounds), scale)

    def update_frequency_vector(self, frequencies: np.ndarray) -> None:
        """Bulk-load a full 1-D frequency vector (experiment fast path).

        Equivalent to ``update_point(i, f_i)`` for every domain point but
        computed as one dot product per generator cell; only available when
        every channel is a plain :class:`GeneratorChannel`.
        """
        from repro.schemes import channel_kind

        frequencies = np.asarray(frequencies, dtype=np.float64)
        nonzero = np.flatnonzero(frequencies)
        indices = nonzero.astype(np.uint64)
        weights = frequencies[nonzero]
        for row in self.cells:
            for cell in row:
                channel = cell.channel
                if channel_kind(channel) != "generator":
                    raise TypeError(
                        "update_frequency_vector requires GeneratorChannel cells"
                    )
                values = channel.generator.values(indices).astype(np.float64)
                cell.value += float(np.dot(values, weights))

    def values(self) -> np.ndarray:
        """The counters as a ``(medians, averages)`` float array."""
        return np.array(
            [[cell.value for cell in row] for row in self.cells],
            dtype=np.float64,
        )

    def combined(self, other: "SketchMatrix") -> "SketchMatrix":
        """Merge two sketches built under the same scheme (union of data)."""
        if self.scheme is not other.scheme:
            raise ValueError("can only combine sketches of the same scheme")
        merged = SketchMatrix(self.scheme)
        for m_row, a_row, b_row in zip(merged.cells, self.cells, other.cells):
            for m, a, b in zip(m_row, a_row, b_row):
                m.value = a.value + b.value
        return merged

    def difference(self, other: "SketchMatrix") -> "SketchMatrix":
        """Sketch of the (signed) difference of the two sketched multisets.

        By linearity ``X_{R - S} = X_R - X_S``; self-joining the result
        estimates the self-join of the symmetric difference -- the
        reduction behind the L1-difference application (Section 5.1).
        """
        if self.scheme is not other.scheme:
            raise ValueError("can only subtract sketches of the same scheme")
        result = SketchMatrix(self.scheme)
        for r_row, a_row, b_row in zip(result.cells, self.cells, other.cells):
            for r, a, b in zip(r_row, a_row, b_row):
                r.value = a.value - b.value
        return result
