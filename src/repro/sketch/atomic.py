"""Atomic AMS sketches and the update channels that feed them.

An *atomic sketch* of a relation R with frequency vector ``r`` is the single
counter ``X_R = sum_i r_i xi_i`` (paper Section 2.1).  It is updated

* one point at a time (``X += w * xi_i``) for tuple streams,
* one interval at a time (``X += w * sum_{i in [a,b]} xi_i``) for interval
  streams -- this is where fast range-summation pays off, and
* by merging (``X = X1 + X2``) for distributed computation.

The *channel* abstraction decouples the sketch counter from how a point or
interval contributes to it, so the same estimator code runs over:

``GeneratorChannel``
    a +/-1 scheme used directly (EH3/BCH3 range-sum in sub-linear time;
    schemes without a fast algorithm fall back to brute-force generation,
    reproducing the paper's "the alternative is to generate and sum up
    every value" baseline);
``DMAPChannel``
    the Das et al. dyadic mapping, where a point costs ``n + 1`` updates
    and an interval at most ``2n - 2``;
``ProductChannel`` / ``ProductDMAPChannel``
    their d-dimensional counterparts over tuple points and rectangles.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Sequence

import numpy as np

from repro.generators.base import Generator
from repro.rangesum.base import brute_force_range_sum
from repro.rangesum.dmap import DMAP
from repro.rangesum.multidim import ProductDMAP, ProductGenerator, Rect

__all__ = [
    "AtomicChannel",
    "GeneratorChannel",
    "DMAPChannel",
    "ProductChannel",
    "ProductDMAPChannel",
    "AtomicSketch",
    "points_total",
]


class AtomicChannel(ABC):
    """How a single point or interval contributes to one atomic counter."""

    @abstractmethod
    def point(self, item: Any) -> int:
        """Contribution of one point item."""

    @abstractmethod
    def interval(self, bounds: Any) -> int:
        """Contribution of one interval (1-D pair or d-D rectangle)."""

    def points(self, items: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`point` (1-D integer domains only by default)."""
        return np.fromiter(
            (self.point(int(i)) for i in np.asarray(items).ravel()),
            dtype=np.int64,
            count=np.asarray(items).size,
        )


class GeneratorChannel(AtomicChannel):
    """Channel over a +/-1 generating scheme used directly."""

    def __init__(self, generator: Generator) -> None:
        self.generator = generator

    def point(self, item: int) -> int:
        return self.generator.value(item)

    def points(self, items: np.ndarray) -> np.ndarray:
        return self.generator.values(np.asarray(items, dtype=np.uint64)).astype(
            np.int64
        )

    def interval(self, bounds: tuple[int, int]) -> int:
        alpha, beta = bounds
        range_sum = getattr(self.generator, "range_sum", None)
        if range_sum is not None:
            return range_sum(alpha, beta)
        return brute_force_range_sum(self.generator, alpha, beta)


class DMAPChannel(AtomicChannel):
    """Channel over the dyadic-mapping baseline."""

    def __init__(self, dmap: DMAP) -> None:
        self.dmap = dmap

    def point(self, item: int) -> int:
        return self.dmap.point_contribution(item)

    def interval(self, bounds: tuple[int, int]) -> int:
        alpha, beta = bounds
        return self.dmap.interval_contribution(alpha, beta)


class ProductChannel(AtomicChannel):
    """Channel over a d-dimensional product generator.

    ``interval`` accepts both plain rectangles (one (low, high) pair per
    axis) and *mixed* specifications where some axes are single points --
    the primitive behind the d-dimensional spatial-join estimators.
    """

    def __init__(self, generator: ProductGenerator) -> None:
        self.generator = generator

    def point(self, item: Sequence[int]) -> int:
        return self.generator.value(item)

    def interval(self, bounds: Sequence[Any]) -> int:
        return self.generator.mixed_sum(bounds)


class ProductDMAPChannel(AtomicChannel):
    """Channel over d-dimensional DMAP."""

    def __init__(self, dmap: ProductDMAP) -> None:
        self.dmap = dmap

    def point(self, item: Sequence[int]) -> int:
        return self.dmap.point_contribution(item)

    def interval(self, bounds: Rect) -> int:
        return self.dmap.rect_contribution(bounds)


def points_total(
    channel: AtomicChannel,
    items: np.ndarray,
    weights: Sequence[float] | np.ndarray | None = None,
) -> float:
    """``sum_p w_p * channel.point(p)`` over a 1-D point batch."""
    contributions = channel.points(items)
    if weights is None:
        return float(contributions.sum())
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != contributions.shape:
        raise ValueError("weights must match items element-wise")
    return float(np.dot(contributions, weights))


class AtomicSketch:
    """One linear counter ``X = sum_i w_i * contribution(i)``.

    Linearity gives the two streaming super-powers of Section 2.1 for free:
    incremental updates (add each arriving tuple's contribution) and
    distributed merging (add the counters).
    """

    def __init__(self, channel: AtomicChannel, value: float = 0.0) -> None:
        self.channel = channel
        self.value = value

    def update_point(self, item: Any, weight: float = 1.0) -> None:
        """Add one (possibly weighted) point to the sketched relation."""
        self.value += weight * self.channel.point(item)

    def update_interval(self, bounds: Any, weight: float = 1.0) -> None:
        """Add every point of an interval/rectangle, in sub-linear time."""
        self.value += weight * self.channel.interval(bounds)

    def update_points(
        self,
        items: np.ndarray,
        weights: Sequence[float] | np.ndarray | None = None,
    ) -> None:
        """Bulk point update (vectorized when the channel supports it)."""
        self.value += points_total(self.channel, items, weights)

    def combined(self, other: "AtomicSketch") -> "AtomicSketch":
        """Merged sketch of the union of the two sketched multisets.

        Only meaningful when both were built over the *same* channel (same
        seed); this is the distributed-aggregation operation of the paper.
        """
        if self.channel is not other.channel:
            raise ValueError("can only combine sketches sharing a channel")
        return AtomicSketch(self.channel, self.value + other.value)

    def __repr__(self) -> str:
        return f"AtomicSketch(value={self.value!r})"
