"""CSH-style dyadic hierarchy: heavy hitters and quantiles by descent.

The counter grids of all dyadic levels over a ``2^n`` domain form one
float64 ``(levels, medians, averages)`` table (CSH's ``tables``), **all
levels sharing one scheme** (the same seeds): a level-``l`` block index
``q = item >> l`` lives in the sub-domain ``[0, 2^(n-l))`` of the full
domain, where the scheme's n-bit +/-1 generators are just as 3-wise
independent, so no per-level seed material is needed and one packed
plane serves every level.  A write shifts its batch once per level,
signs it with the plane's ``point_signs`` and forms every level's totals
before one ``table += totals`` commits them, so a write that fails part
way has changed nothing; a descent step signs its candidate blocks in
one pass and unpacks the bits to +/-1.  Schemes without a packed plane
(RM7, Toeplitz) take their signs from the channels' own generators.  A
plane that raises fails the write or the descent: there is no second
sign source to fall back on.

An interval update touches each level with at most two partial edge
blocks (weighted by the overlap) plus one run of full blocks (a single
range-summable run weighted by the block size) -- O(1) sketch operations
per level, which is what makes the surfaces maintainable continuously.

Heavy hitters descend from the root: a block whose estimated frequency
clears the threshold expands into its two children one level down; any
true hitter keeps every ancestor block above the threshold, so descent
never loses one (up to estimation error at the block level, which the
paper's ``sqrt(2/pi) * sqrt(Var / averages)`` envelope bounds).
Quantiles descend by rank: at each level the left child's estimate
decides the branch, classic dyadic rank search.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro import obs
from repro.query.estimate import estimate_from_products, predicted_relative_error
from repro.query.types import Estimate, HeavyHitter, PlanStats
from repro.sketch.ams import SketchMatrix, SketchScheme
from repro.sketch.kernels import bit_sums, pack_counter_bits, unpack_counter_bits

__all__ = ["DyadicHierarchy"]

#: Most sign-bit rows one packed write pass holds.  A small batch signs
#: every level in one pass (64 points x 17 levels = 1,088 rows); a large
#: one goes level by level, so a 60k-point load holds one level's signs
#: at a time.
SIGN_ROWS = 1 << 16


class DyadicHierarchy:
    """Per-level counters of one relation, maintained update by update.

    :attr:`table` holds them: one float64 ``(levels, medians, averages)``
    array, to which a write adds all its totals with one ``+=``.
    """

    def __init__(self, scheme: SketchScheme, domain_bits: int) -> None:
        from repro.schemes import channel_kind

        if domain_bits <= 0:
            raise ValueError("domain_bits must be positive")
        channels = [channel for row in scheme.channels for channel in row]
        if any(channel_kind(channel) != "generator" for channel in channels):
            raise TypeError("a dyadic hierarchy requires GeneratorChannel cells")
        self.scheme = scheme
        self.domain_bits = int(domain_bits)
        self._generators = [channel.generator for channel in channels]
        # Level l holds the counters of block indices item >> l; level 0
        # is the items themselves, level ``domain_bits`` the single root.
        levels = self.domain_bits + 1
        self.table = np.zeros(
            (levels, scheme.medians, scheme.averages), dtype=np.float64
        )
        self._shifts = np.arange(levels, dtype=np.uint64)[:, np.newaxis]

    @property
    def levels(self) -> int:
        """Number of maintained levels (``domain_bits + 1``)."""
        return int(self.table.shape[0])

    def sketch_at(self, level: int) -> SketchMatrix:
        """A copy of one level's counters as a sketch of the scheme."""
        return SketchMatrix.from_values(self.scheme, self.table[level])

    # -- sign sources ----------------------------------------------------

    def _sign_bits(self, indices: np.ndarray, plane: Any) -> np.ndarray:
        """Packed ``(n, words)`` sign bits of ``indices``, bit set where -1.

        The plane's one sign pass, or -- with ``plane=None`` -- one
        ``generator.values`` call per counter, packed the same way.
        """
        if plane is not None:
            return plane.point_signs(indices)
        negative = [generator.values(indices) < 0 for generator in self._generators]
        return pack_counter_bits(np.array(negative).T)

    def _point_totals(
        self,
        items: Sequence[int] | np.ndarray,
        weights: Sequence[float] | np.ndarray | None,
        plane: Any,
    ) -> np.ndarray:
        """Every level's totals of a point batch, shaped like the table.

        The batch is shifted once per level (row ``l`` holds each item's
        level-``l`` block) and signed a group of levels per pass.  Totals
        are ``base - 2 * (ones per counter)``, the planes' finisher, with
        one ``bit_sums`` call over the group's levels side by side: each
        column still sums the batch's rows in order, so every level's
        floats match a per-level ``bit_sums``.
        """
        items = np.asarray(items, dtype=np.uint64).ravel()
        batch = items.size
        u = None if weights is None else np.asarray(weights, dtype=np.float64).ravel()
        base = float(batch) if u is None else float(u.sum())
        counters = self.scheme.counters
        totals = np.empty((self.levels, counters), dtype=np.float64)
        group = max(1, SIGN_ROWS // batch)
        for first in range(0, self.levels, group):
            blocks = items >> self._shifts[first : first + group]
            count = blocks.shape[0]
            signs = self._sign_bits(blocks.ravel(), plane).reshape(count, batch, -1)
            columns = signs.transpose(1, 0, 2).reshape(batch, -1)
            ones = bit_sums(columns, u).reshape(count, -1)[:, :counters]
            totals[first : first + count] = base - 2.0 * ones
        return totals.reshape(self.table.shape)

    def _interval_totals(
        self,
        intervals: Sequence[Sequence[int]] | np.ndarray,
        weights: Sequence[float] | np.ndarray | None,
    ) -> np.ndarray:
        """Every level's totals of an interval batch, shaped like the table.

        Each block run is one range-sum: the plane's interval kernel, or
        the channels' own range-sums where it has none.
        """
        totals = np.zeros_like(self.table)
        for position, (low, high) in enumerate(intervals):
            scale = 1.0 if weights is None else float(weights[position])
            for level, first, last, w in self._interval_ops(low, high, scale):
                totals[level] += w * self.scheme.interval_totals((first, last))
        return totals

    # -- updates ---------------------------------------------------------

    def update_point(self, item: int, weight: float = 1.0) -> None:
        """Fan one point into every level."""
        self.update_points([item], [weight])

    def update_points(
        self,
        items: Sequence[int] | np.ndarray,
        weights: Sequence[float] | np.ndarray | None = None,
    ) -> None:
        """Fan a point batch into every level (one sign pass per group)."""
        array = np.asarray(items, dtype=np.uint64)
        if array.size == 0:
            return
        self.table += self._point_totals(array, weights, self.scheme.plane())
        obs.counter("query.hierarchy.updates_total").inc(array.size)

    def _interval_ops(
        self, low: int, high: int, weight: float
    ) -> list[tuple[int, int, int, float]]:
        """Per-level block runs of one interval: ``(level, first, last, w)``.

        Per level, the (at most two) partially covered edge blocks are
        single-block runs weighted by their overlap, and the run of fully
        covered blocks is one range-summable run weighted by the block
        size.
        """
        low, high = int(low), int(high)
        if low > high:
            raise ValueError(f"empty interval [{low}, {high}]")
        ops = [(0, low, high, weight)]
        for level in range(1, self.levels):
            size = 1 << level
            first, last = low >> level, high >> level
            if first == last:
                ops.append((level, first, first, weight * (high - low + 1)))
                continue
            head = size - (low & (size - 1))  # covered items of block `first`
            tail = (high & (size - 1)) + 1  # covered items of block `last`
            if head < size:
                ops.append((level, first, first, weight * head))
                first += 1
            if tail < size:
                ops.append((level, last, last, weight * tail))
                last -= 1
            if first <= last:
                ops.append((level, first, last, weight * size))
        return ops

    def update_interval(self, low: int, high: int, weight: float = 1.0) -> None:
        """Add ``weight`` to every item of ``[low, high]`` at every level.

        O(1) sketch operations per level (see :meth:`_interval_ops`);
        exact for integer weights -- the counters land bit-identical to
        feeding every point individually.
        """
        self.update_intervals([(low, high)], [weight])

    def update_intervals(
        self,
        intervals: Sequence[Sequence[int]] | np.ndarray,
        weights: Sequence[float] | np.ndarray | None = None,
    ) -> None:
        """Add a batch of inclusive intervals, committed at once."""
        self.table += self._interval_totals(intervals, weights)
        obs.counter("query.hierarchy.updates_total").inc(len(intervals))

    # -- block estimation ------------------------------------------------

    def estimate_blocks(
        self, level: int, blocks: Sequence[int] | np.ndarray
    ) -> np.ndarray:
        """Estimated frequencies of a batch of blocks at one level.

        Vectorized across the batch: one sign pass evaluates every
        counter on all candidate blocks at once, then the shared
        median-of-means reduction runs column-wise.  Per block,
        bit-identical to a point query against the level's sketch.
        """
        blocks = np.asarray(blocks, dtype=np.uint64).ravel()
        signs = self._sign_bits(blocks, self.scheme.plane())
        bits = unpack_counter_bits(signs, self.scheme.counters)
        values = np.ascontiguousarray((1.0 - 2.0 * bits).T).reshape(
            self.scheme.medians, self.scheme.averages, blocks.size
        )
        # The column-batched form of repro.query.estimate.median_of_means:
        # same floats, same summation order, one candidate per column.
        products = self.table[level][:, :, np.newaxis] * values
        row_means = products.mean(axis=1)  # (medians, blocks)
        return np.asarray(np.median(row_means, axis=0), dtype=np.float64)

    def total(self) -> float:
        """Estimated total weight (the root block's frequency)."""
        return float(self.estimate_blocks(self.domain_bits, [0])[0])

    def predicted_envelopes(self) -> list[float]:
        """Paper-predicted absolute error of a block estimate, per level.

        A level-``l`` block estimate has variance bounded by the level's
        second moment, so its expected absolute error is
        ``sqrt(2/pi) * sqrt(F2_l / averages)`` -- with ``F2_l`` itself
        estimated from the level's counters by the reduction
        ``engine.self_join`` runs.  Index ``[l]`` is the envelope
        for level-``l`` blocks; pass the list as ``slack`` to
        :meth:`heavy_hitters` for recall at the paper's error bound.
        """
        averages = self.scheme.averages
        return [
            predicted_relative_error(
                max(estimate_from_products(grid * grid).value, 0.0), 1.0, averages
            )
            for grid in self.table
        ]

    # -- surfaces --------------------------------------------------------

    def heavy_hitters(
        self, threshold: float, slack: float | Sequence[float] = 0.0
    ) -> list[HeavyHitter]:
        """All items whose estimated frequency clears ``threshold``.

        Root-to-leaf descent: blocks estimated below the pruning bar are
        dropped with their whole subtree; survivors expand into their
        two children.  Cost is O(hitters * levels * counters).

        ``slack`` lowers the pruning bar to ``threshold - slack``; a
        sequence gives one slack per level (index = block level), a
        scalar applies everywhere.  With block estimates accurate to
        within the paper's ``sqrt(2/pi) * sqrt(F2_l / averages)``
        envelope (:meth:`predicted_envelopes`), setting the slack to
        that envelope guarantees every item of true frequency >=
        ``threshold`` survives the descent -- an ancestor block weighs
        at least as much as the item it contains -- while reported items
        are only guaranteed to exceed ``threshold - 2 * slack``, the
        classical recall/precision trade.
        """
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        if isinstance(slack, (int, float)):
            slacks = [float(slack)] * (self.domain_bits + 1)
        else:
            slacks = [float(s) for s in slack]
            if len(slacks) != self.domain_bits + 1:
                raise ValueError(
                    f"per-level slack needs {self.domain_bits + 1} entries, "
                    f"got {len(slacks)}"
                )
        if any(s < 0 for s in slacks):
            raise ValueError("slack must be non-negative")
        obs.counter("query.hierarchy.descents_total").inc()
        with obs.span("query.hierarchy.descent", kind="heavy_hitters"):
            candidates = np.zeros(1, dtype=np.uint64)
            for level in range(self.domain_bits, 0, -1):
                if candidates.size == 0:
                    return []
                obs.counter("query.hierarchy.nodes_total").inc(
                    candidates.size
                )
                estimates = self.estimate_blocks(level, candidates)
                survivors = candidates[estimates >= threshold - slacks[level]]
                children = np.concatenate(
                    [
                        survivors << np.uint64(1),
                        (survivors << np.uint64(1)) + np.uint64(1),
                    ]
                )
                candidates = np.sort(children)
            if candidates.size == 0:
                return []
            obs.counter("query.hierarchy.nodes_total").inc(candidates.size)
            estimates = self.estimate_blocks(0, candidates)
            keep = estimates >= threshold - slacks[0]
            return [
                HeavyHitter(item=int(item), estimate=float(estimate))
                for item, estimate in zip(candidates[keep], estimates[keep])
            ]

    def quantile(self, fraction: float) -> Estimate:
        """The item at rank ``fraction * total_weight`` by rank descent.

        At each level the left child's estimated weight decides the
        branch; the returned :class:`Estimate` carries the item as its
        value and a ``descent`` plan recording the path length.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must lie in [0, 1]")
        obs.counter("query.hierarchy.descents_total").inc()
        with obs.span("query.hierarchy.descent", kind="quantile"):
            rank = fraction * max(self.total(), 0.0)
            block = 0
            for level in range(self.domain_bits, 0, -1):
                obs.counter("query.hierarchy.nodes_total").inc(2)
                left = block << 1
                left_weight = max(
                    float(self.estimate_blocks(level - 1, [left])[0]), 0.0
                )
                if rank <= left_weight:
                    block = left
                else:
                    rank -= left_weight
                    block = left + 1
            item = float(block)
            return Estimate(
                value=item,
                ci_low=item,
                ci_high=item,
                plan=PlanStats(
                    kind="descent",
                    pieces=self.domain_bits,
                    max_level=self.domain_bits,
                ),
                medians=self.scheme.medians,
                averages=self.scheme.averages,
            )

    # -- durability ------------------------------------------------------

    def counters_state(self) -> list[list[list[float]]]:
        """The ``(levels, medians, averages)`` table as nested lists."""
        state: list[list[list[float]]] = self.table.tolist()
        return state

    def restore_counters(self, state: Sequence[Any]) -> None:
        """Load a table saved by :meth:`counters_state`.

        The state must be exactly ``(levels, medians, averages)`` finite
        floats; anything else raises :class:`ValueError` and leaves the
        counters as they were.
        """
        grid = np.asarray(state, dtype=np.float64)  # ragged: ValueError
        if grid.shape != self.table.shape:
            raise ValueError(
                f"hierarchy snapshot has shape {grid.shape}, expected "
                f"(levels, medians, averages) = {self.table.shape}"
            )
        if not np.isfinite(grid).all():
            raise ValueError("hierarchy snapshot holds non-finite counters")
        self.table[...] = grid
