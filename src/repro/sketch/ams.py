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
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro import obs
from repro.generators.base import Generator
from repro.generators.seeds import SeedSource
from repro.sketch.atomic import (
    AtomicChannel,
    AtomicSketch,
    GeneratorChannel,
    points_total,
)

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

    def channel_totals(
        self, contribution: Callable[[AtomicChannel], Any]
    ) -> np.ndarray:
        """``contribution(channel)`` of every channel as a float64 grid."""
        return np.array(
            [[contribution(channel) for channel in row] for row in self.channels],
            dtype=np.float64,
        )

    def point_totals(self, item: Any) -> np.ndarray:
        """Unit-weight ``(medians, averages)`` contributions of one point."""
        if isinstance(item, (int, np.integer)):
            plane = self.plane()
            if plane is not None:
                totals = plane.point_totals(np.asarray([item]))
                return totals.reshape(self.medians, self.averages)
        return self.channel_totals(lambda channel: channel.point(item))

    def interval_totals(self, bounds: Any) -> np.ndarray:
        """Unit-weight ``(medians, averages)`` sums of one interval/rectangle."""
        totals = plane_interval_totals(self.plane(), bounds)
        if totals is not None:
            return totals.reshape(self.medians, self.averages)
        return self.channel_totals(lambda channel: channel.interval(bounds))


def plane_interval_totals(plane: Any, bounds: Any) -> np.ndarray | None:
    """Unit-weight per-counter sums of one 1-D interval, or ``None``.

    The interval is resolved against the plane's declared
    ``interval_kind`` by the query planner and its pieces handed to the
    kernel by :meth:`repro.query.plan.LevelPlan.totals`, so writes and
    query probes share one set of guards and one kind-to-kernel dispatch.
    ``None`` (no plane, no interval kernel, or bounds the scalar path
    owns) means the caller sums the channels' own range-sums instead.
    """
    # Imported here: repro.query's engine imports this module.
    from repro.query.plan import plan_interval

    try:
        alpha, beta = bounds
    except (TypeError, ValueError):
        return None
    plan = plan_interval(alpha, beta, getattr(plane, "interval_kind", None))
    return None if plan.kind == "scalar" else plan.totals(plane)


class SketchMatrix:
    """The counters summarizing one relation: one ``(medians, averages)`` array.

    Every write is compute-then-commit: the packed plane (or, for grids
    it does not cover, the channels) forms a totals grid and one ``+=``
    commits it to :attr:`table`, so a write that fails has changed
    nothing.  The add runs ``value + weight * total`` per counter, the
    per-cell loop's IEEE operations in the same order, so counters are
    bit-identical to :class:`AtomicSketch` updates.
    """

    def __init__(self, scheme: SketchScheme) -> None:
        self.scheme = scheme
        self.table = np.zeros((scheme.medians, scheme.averages), dtype=np.float64)

    @classmethod
    def from_values(cls, scheme: SketchScheme, values: Any) -> "SketchMatrix":
        """A sketch holding a copy of a grid of exactly ``(medians, averages)``."""
        shape = (scheme.medians, scheme.averages)
        grid = np.array(values, dtype=np.float64)  # ragged rows raise here
        if grid.shape != shape:
            raise ValueError(
                f"counter grid has shape {grid.shape}; the scheme needs {shape}"
            )
        sketch = cls(scheme)
        sketch.table = grid
        return sketch

    @property
    def cells(self) -> list[list[AtomicSketch]]:
        """Write-through views: ``cells[r][c].value`` is ``table[r, c]`` (tests only)."""
        return [
            [_CounterView(channel, self, (r, c)) for c, channel in enumerate(row)]
            for r, row in enumerate(self.scheme.channels)
        ]

    def update_point(self, item: Any, weight: float = 1.0) -> None:
        """Stream one point into every counter (one plane pass when covered)."""
        self._add_scaled(self.scheme.point_totals(item), weight)

    def update_interval(self, bounds: Any, weight: float = 1.0) -> None:
        """Stream one interval/rectangle into every counter.

        The fast path behind ``StreamProcessor.process_interval``: 1-D
        intervals on plane-covered grids decompose once and update every
        counter in one batched pass.
        """
        self._add_scaled(self.scheme.interval_totals(bounds), weight)

    def _add_scaled(self, totals: np.ndarray, weight: float) -> None:
        """Commit ``weight * totals`` in one add."""
        self.table += weight * totals

    def _add_each(
        self,
        grids: Iterable[np.ndarray],
        weights: Sequence[float] | np.ndarray | None,
    ) -> None:
        """Add one scaled grid per batch element in order, then commit once."""
        staged = self.table.copy()
        for position, grid in enumerate(grids):
            scale = 1.0 if weights is None else float(weights[position])
            staged += scale * grid
        self.table[...] = staged

    def update_points(
        self,
        items: Any,
        weights: Sequence[float] | np.ndarray | None = None,
    ) -> None:
        """Stream a whole point batch into the grid in one plane pass.

        Falls back to per-channel vectorized totals (and, for product
        channels, per-point totals) when no plane covers the grid.
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
            self.table += self.scheme.channel_totals(
                lambda channel: points_total(channel, items, weights)
            )
            return
        self._add_each(
            (
                self.scheme.point_totals(tuple(int(x) for x in item))
                for item in items
            ),
            weights,
        )

    def update_intervals(
        self,
        intervals: Any,
        weights: Sequence[float] | np.ndarray | None = None,
    ) -> None:
        """Stream a whole 1-D interval batch into the grid.

        One batched decomposition plus one plane pass for the entire
        ``intervals x counters`` workload; falls back to per-interval
        totals otherwise.  Equivalent to ``update_interval`` per
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
        pairs = np.asarray(intervals).reshape(-1, 2).tolist()
        self._add_each(
            (self.scheme.interval_totals((a, b)) for a, b in pairs), weights
        )

    def update_frequency_vector(self, frequencies: np.ndarray) -> None:
        """Bulk-load a full 1-D frequency vector (experiment fast path).

        Equivalent to ``update_point(i, f_i)`` for every domain point but
        computed as one dot product per generator channel; only available
        when every channel is a plain :class:`GeneratorChannel`.
        """
        from repro.schemes import channel_kind

        frequencies = np.asarray(frequencies, dtype=np.float64)
        nonzero = np.flatnonzero(frequencies)
        indices = nonzero.astype(np.uint64)
        weights = frequencies[nonzero]

        def dot(channel: Any) -> float:
            if channel_kind(channel) != "generator":
                raise TypeError(
                    "update_frequency_vector requires GeneratorChannel cells"
                )
            return points_total(channel, indices, weights)

        self.table += self.scheme.channel_totals(dot)

    def values(self) -> np.ndarray:
        """A copy of the counters as a ``(medians, averages)`` float array."""
        return self.table.copy()

    def combined(self, other: "SketchMatrix") -> "SketchMatrix":
        """Merge two sketches built under the same scheme (union of data)."""
        if self.scheme is not other.scheme:
            raise ValueError("can only combine sketches of the same scheme")
        return SketchMatrix.from_values(self.scheme, self.table + other.table)

    def difference(self, other: "SketchMatrix") -> "SketchMatrix":
        """Sketch of the (signed) difference of the two sketched multisets.

        By linearity ``X_{R - S} = X_R - X_S``; self-joining the result
        estimates the self-join of the symmetric difference -- the
        reduction behind the L1-difference application (Section 5.1).
        """
        if self.scheme is not other.scheme:
            raise ValueError("can only subtract sketches of the same scheme")
        return SketchMatrix.from_values(self.scheme, self.table - other.table)


class _CounterView(AtomicSketch):
    """One counter of a :class:`SketchMatrix`, read and written in its table."""

    def __init__(
        self, channel: AtomicChannel, sketch: SketchMatrix, index: tuple[int, int]
    ) -> None:
        self.channel = channel
        self._sketch = sketch
        self._index = index

    @property
    def value(self) -> float:
        return float(self._sketch.table[self._index])

    @value.setter
    def value(self, value: float) -> None:
        self._sketch.table[self._index] = value
