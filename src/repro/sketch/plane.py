"""Structure-of-arrays counter planes: one pass updates a whole grid.

A scheme (:mod:`repro.sketch.ams`) holds a ``medians x averages`` grid
of channel *objects*, each with its own seed, and the scalar reference
path loops over that grid in Python, one channel per counter.  This
module removes that loop: all seeds of a grid are transposed into
bit-sliced numpy tables, so one batch of points or dyadic pieces yields
every counter's total in a handful of fused passes.

Bit-sliced layout
-----------------
Counter ``c`` of the grid (row-major) owns bit ``c mod 64`` of word
``c // 64``.  A seed table such as EH3's ``S1`` becomes an
``(n_bits, words)`` matrix ``S1T`` whose row ``j`` packs bit ``j`` of every
counter's seed.  The GF(2) dot products that dominate every scheme then
vectorize *across counters*: for index ``i``,

    ``acc ^= (-(i >> j & 1)) & S1T[j]``        for each index bit ``j``

accumulates ``parity(S1_c & i)`` for all counters at once -- ``n`` word
passes instead of ``n``-bit parities per counter.  Batch-level terms that
do not depend on the counter (EH3's nonlinear ``h(i)``, the piece weight
and ``2^level`` scale, BCH5's cube) are computed once per batch element.

The per-counter totals are recovered without unpacking: with
``u_p = weight_p * scale_p`` and packed sign bits ``b_{p,c}``,

    ``total_c = sum_p u_p (1 - 2 b_{p,c}) = sum_p u_p - 2 sum_p u_p b_{p,c}``

and the weighted bit-sums come from per-byte histograms (or carry-save
adder trees for unweighted batches) -- O(words) passes for the whole grid.

Kernels
-------
The primitive kernels themselves -- the packed parity pass, the bit-sum
finisher, the Mersenne polynomial evaluation -- live in
:mod:`repro.sketch.kernels`; the planes call them directly.  Kernel time
lands in the ``sketch.kernel.seconds`` histogram.

All arithmetic is float64 over exact integers (every term is ``+-2^j``
with ``j`` far below 53 bits), so plane updates are bit-for-bit identical
to the scalar per-cell paths for integer weights, and agree to one
multiplication rounding otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from repro import obs
from repro.core.bits import adjacent_pair_or_fold_array
from repro.generators.bch3 import BCH3
from repro.generators.bch5 import BCH5
from repro.generators.eh3 import EH3
from repro.sketch.kernels import bit_sums, pack_counter_bits, parity_kernel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sketch.ams import SketchMatrix, SketchScheme

__all__ = [
    "PackedPlane",
    "EH3Plane",
    "BCH3Plane",
    "BCH5Plane",
    "DMAPPlane",
    "PlaneDecision",
    "plane_decision",
    "counter_plane",
    "require_plane",
    "pack_counter_bits",
    "add_totals",
]

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


class PackedPlane:
    """Shared packed-seed scaffolding of the concrete planes.

    External plane kernels (registered through
    :mod:`repro.schemes`; see :class:`repro.schemes.PolyPrimePlane`)
    subclass this for the input checks and the signed-total finisher, and
    set two class attributes the dispatch layers read:

    * ``plane_kind`` -- ``"generator"`` for planes over plain generator
      channels, ``"dmap"`` for planes over DMAP channels;
    * ``interval_kind`` -- the piece shape ``interval_totals`` consumes
      (``"quaternary"``, ``"binary"``, ``"endpoints"``), or ``None``
      when the plane only supports point batches.

    Generator planes expose their sign pass as
    ``point_signs(points) -> (batch, words)`` uint64: bit ``c`` of row
    ``p`` is set exactly where ``xi_c(points[p]) = -1``.  It is the one
    pass behind ``point_totals`` and the whole-grid sign source of the
    dyadic hierarchy (:mod:`repro.query.hierarchy`); unpack it with
    :func:`repro.sketch.kernels.unpack_counter_bits`.
    """

    plane_kind = "generator"
    interval_kind: str | None = None
    #: The sign pass; declared here for type checkers, defined per plane.
    point_signs: Callable[[Sequence[int] | np.ndarray], np.ndarray]

    def __init__(self, domain_bits: int, counters: int) -> None:
        if counters < 1:
            raise ValueError("a plane needs at least one counter")
        self.domain_bits = domain_bits
        self.counters = counters
        self.words = (counters + 63) // 64

    def _check_points(self, points: Sequence[int] | np.ndarray) -> np.ndarray:
        points = np.asarray(points)
        if points.dtype.kind == "i" and points.size and int(points.min()) < 0:
            raise ValueError("negative index in plane update")
        points = points.astype(np.uint64, copy=False).ravel()
        if points.size and self.domain_bits < 64:
            top = int(points.max())
            if top >= (1 << self.domain_bits):
                raise ValueError(
                    f"index {top} outside domain of size 2^{self.domain_bits}"
                )
        return points

    def _check_pieces(self, lows: np.ndarray, levels: np.ndarray) -> None:
        """Reject dyadic pieces that spill past the domain's top index."""
        if lows.size == 0 or self.domain_bits >= 64:
            return
        if int(levels.max()) > self.domain_bits:
            raise ValueError(
                f"dyadic level {int(levels.max())} outside domain "
                f"2^{self.domain_bits}"
            )
        spans = (np.uint64(1) << levels.astype(np.uint64)) - np.uint64(1)
        top = int((lows + spans).max())
        if top >= (1 << self.domain_bits):
            raise ValueError(
                f"index {top} outside domain of size 2^{self.domain_bits}"
            )

    def _weights(
        self,
        weights: Sequence[float] | np.ndarray | None,
        size: int,
    ) -> np.ndarray:
        if weights is None:
            return np.ones(size, dtype=np.float64)
        weights = np.asarray(weights, dtype=np.float64).ravel()
        if weights.size != size:
            raise ValueError("weights must match the batch element-wise")
        return weights

    def _weights_or_none(
        self,
        weights: Sequence[float] | np.ndarray | None,
        size: int,
    ) -> np.ndarray | None:
        """Validated weights, or ``None`` for the all-ones batch.

        Keeping the unweighted case as ``None`` lets :func:`bit_sums` take
        its popcount route for point batches (exact either way).
        """
        if weights is None:
            return None
        return self._weights(weights, size)

    def _signed_totals(
        self, acc: np.ndarray, u: np.ndarray | None
    ) -> np.ndarray:
        """Per-counter ``sum_p u_p * (-1)^{bit}`` from packed sign bits."""
        if u is None:
            base = float(acc.shape[0])
        else:
            base = float(u.sum())
        return base - 2.0 * bit_sums(acc, u)[: self.counters]

    def _point_totals(
        self,
        points: Sequence[int] | np.ndarray,
        weights: Sequence[float] | np.ndarray | None,
    ) -> np.ndarray:
        """``point_totals`` of the planes whose sign pass is one call."""
        start = obs.monotonic()
        signs = self.point_signs(points)
        totals = self._signed_totals(
            signs, self._weights_or_none(weights, signs.shape[0])
        )
        self._observe_kernel(start)
        return totals

    def _observe_kernel(self, start: float) -> None:
        """Record one kernel pass in the kernel timing histogram."""
        obs.histogram("sketch.kernel.seconds").observe(obs.monotonic() - start)


class EH3Plane(PackedPlane):
    """All EH3 seeds of a grid, packed for whole-grid batch updates."""

    interval_kind = "quaternary"

    def __init__(self, generators: Sequence[EH3]) -> None:
        bits = {g.domain_bits for g in generators}
        if len(bits) != 1:
            raise ValueError("plane generators must share a domain")
        super().__init__(bits.pop(), len(generators))
        n = self.domain_bits
        s1 = np.array([g.s1 for g in generators], dtype=np.uint64)
        seed_bits = (s1[np.newaxis, :] >> np.arange(n, dtype=np.uint64)[:, np.newaxis]) & np.uint64(1)
        self.s1_table = pack_counter_bits(seed_bits)
        self.s0_word = pack_counter_bits(
            np.array([[g.s0 for g in generators]], dtype=np.uint64)
        )[0]
        # Row j packs (#ZERO pairs among the lowest j seed pairs) mod 2 --
        # the Theorem-2 sign, ready to XOR per quaternary piece.
        pairs = (n + 1) // 2
        pair_shift = (2 * np.arange(pairs, dtype=np.uint64))[:, np.newaxis]
        pair_zero = ((s1[np.newaxis, :] >> pair_shift) & np.uint64(3)) == 0
        zero_parity = np.zeros((pairs + 1, self.counters), dtype=np.uint64)
        zero_parity[1:] = np.cumsum(pair_zero, axis=0, dtype=np.int64) & 1
        self.zero_pair_parity = pack_counter_bits(zero_parity)
        self._parity = parity_kernel(self.s1_table)

    def _sign_bits(self, indices: np.ndarray) -> np.ndarray:
        acc = self._parity(indices)
        acc ^= self.s0_word[np.newaxis, :]
        h = adjacent_pair_or_fold_array(indices, self.domain_bits)
        acc ^= (h.astype(np.uint64) * _ALL_ONES)[:, np.newaxis]
        return acc

    def point_signs(self, points: Sequence[int] | np.ndarray) -> np.ndarray:
        """Packed ``(batch, words)`` sign bits of a point batch."""
        return self._sign_bits(self._check_points(points))

    def point_totals(
        self,
        points: Sequence[int] | np.ndarray,
        weights: Sequence[float] | np.ndarray | None = None,
    ) -> np.ndarray:
        """Per-counter ``sum_p w_p * xi_c(p)`` for a point batch."""
        return self._point_totals(points, weights)

    def interval_totals(
        self,
        lows: Sequence[int] | np.ndarray,
        half_levels: Sequence[int] | np.ndarray,
        weights: Sequence[float] | np.ndarray | None = None,
    ) -> np.ndarray:
        """Per-counter Theorem-2 totals of a quaternary piece batch.

        ``lows``/``half_levels`` describe pieces ``[low, low + 4^j)``;
        each contributes ``w * (-1)^{#ZERO_j,c} * 2^j * xi_c(low)``.
        """
        lows = self._check_points(lows)
        half_levels = np.asarray(half_levels, dtype=np.int64).ravel()
        if half_levels.size != lows.size:
            raise ValueError("one half-level per piece is required")
        self._check_pieces(lows, 2 * half_levels)
        u = self._weights(weights, lows.size)
        start = obs.monotonic()
        acc = self._sign_bits(lows)
        acc ^= self.zero_pair_parity[half_levels]
        totals = self._signed_totals(acc, np.ldexp(u, half_levels))
        self._observe_kernel(start)
        return totals


class BCH3Plane(PackedPlane):
    """All BCH3 seeds of a grid, packed for whole-grid batch updates."""

    interval_kind = "binary"

    def __init__(self, generators: Sequence[BCH3]) -> None:
        bits = {g.domain_bits for g in generators}
        if len(bits) != 1:
            raise ValueError("plane generators must share a domain")
        super().__init__(bits.pop(), len(generators))
        n = self.domain_bits
        s1 = np.array([g.s1 for g in generators], dtype=np.uint64)
        seed_bits = (s1[np.newaxis, :] >> np.arange(n, dtype=np.uint64)[:, np.newaxis]) & np.uint64(1)
        self.s1_table = pack_counter_bits(seed_bits)
        self.s0_word = pack_counter_bits(
            np.array([[g.s0 for g in generators]], dtype=np.uint64)
        )[0]
        # Row l packs "level-l dyadic sums survive" (low l seed bits zero).
        trailing = np.array(
            [g.trailing_zero_bits() for g in generators], dtype=np.int64
        )
        alive = (
            np.arange(n + 1, dtype=np.int64)[:, np.newaxis]
            <= trailing[np.newaxis, :]
        )
        self.alive_table = pack_counter_bits(alive)
        self._parity = parity_kernel(self.s1_table)

    def _sign_bits(self, indices: np.ndarray) -> np.ndarray:
        acc = self._parity(indices)
        acc ^= self.s0_word[np.newaxis, :]
        return acc

    def point_signs(self, points: Sequence[int] | np.ndarray) -> np.ndarray:
        """Packed ``(batch, words)`` sign bits of a point batch."""
        return self._sign_bits(self._check_points(points))

    def point_totals(
        self,
        points: Sequence[int] | np.ndarray,
        weights: Sequence[float] | np.ndarray | None = None,
    ) -> np.ndarray:
        """Per-counter ``sum_p w_p * xi_c(p)`` for a point batch."""
        return self._point_totals(points, weights)

    def interval_totals(
        self,
        lows: Sequence[int] | np.ndarray,
        levels: Sequence[int] | np.ndarray,
        weights: Sequence[float] | np.ndarray | None = None,
    ) -> np.ndarray:
        """Per-counter totals of a binary dyadic piece batch.

        A piece ``[low, low + 2^l)`` contributes ``w * 2^l * xi_c(low)``
        where the counter's low ``l`` seed bits vanish and 0 elsewhere, so
        the signed histogram is masked by the packed alive table:
        ``u * alive * (1 - 2 b) = u * alive - 2 u * (alive & b)``.
        """
        lows = self._check_points(lows)
        levels = np.asarray(levels, dtype=np.int64).ravel()
        if levels.size != lows.size:
            raise ValueError("one level per piece is required")
        self._check_pieces(lows, levels)
        u = np.ldexp(self._weights(weights, lows.size), levels)
        start = obs.monotonic()
        acc = self._sign_bits(lows)
        alive = self.alive_table[levels]
        alive_sums = bit_sums(alive, u)[: self.counters]
        signed_sums = bit_sums(alive & acc, u)[: self.counters]
        totals = alive_sums - 2.0 * signed_sums
        self._observe_kernel(start)
        return totals


class BCH5Plane(PackedPlane):
    """All BCH5 seeds of a grid, packed for whole-grid point batches.

    The cube ``i^3`` (arithmetic or extension-field) is seed-independent,
    so the batch pays it once; both GF(2) dot products then run packed.
    """

    def __init__(self, generators: Sequence[BCH5]) -> None:
        bits = {g.domain_bits for g in generators}
        modes = {g.mode for g in generators}
        if len(bits) != 1 or len(modes) != 1:
            raise ValueError("plane generators must share a domain and mode")
        super().__init__(bits.pop(), len(generators))
        self._representative = generators[0]
        n = self.domain_bits
        shifts = np.arange(n, dtype=np.uint64)[:, np.newaxis]
        s1 = np.array([g.s1 for g in generators], dtype=np.uint64)
        s3 = np.array([g.s3 for g in generators], dtype=np.uint64)
        self.s1_table = pack_counter_bits((s1[np.newaxis, :] >> shifts) & np.uint64(1))
        self.s3_table = pack_counter_bits((s3[np.newaxis, :] >> shifts) & np.uint64(1))
        self.s0_word = pack_counter_bits(
            np.array([[g.s0 for g in generators]], dtype=np.uint64)
        )[0]
        self._parity1 = parity_kernel(self.s1_table)
        self._parity3 = parity_kernel(self.s3_table)

    def point_signs(self, points: Sequence[int] | np.ndarray) -> np.ndarray:
        """Packed ``(batch, words)`` sign bits of a point batch."""
        points = self._check_points(points)
        acc = self._parity1(points)
        acc ^= self._parity3(self._representative.cubes(points))
        acc ^= self.s0_word[np.newaxis, :]
        return acc

    def point_totals(
        self,
        points: Sequence[int] | np.ndarray,
        weights: Sequence[float] | np.ndarray | None = None,
    ) -> np.ndarray:
        """Per-counter ``sum_p w_p * xi_c(p)`` for a point batch."""
        return self._point_totals(points, weights)


class DMAPPlane:
    """A packed generator plane over the dyadic-id domain of a DMAP grid.

    Any scheme whose registry spec declares ``dmap_inner`` (i.e. ships a
    packed plane kernel) can back the inner plane -- the dyadic-id batch
    is just a point batch over the inner generators' domain.  The
    default DMAP construction uses BCH5.
    """

    plane_kind = "dmap"
    interval_kind = "endpoints"

    def __init__(self, dmaps: Sequence, inner: Any | None = None) -> None:
        bits = {d.mapper.domain_bits for d in dmaps}
        if len(bits) != 1:
            raise ValueError("plane DMAPs must share a domain")
        self.domain_bits = bits.pop()
        self.mapper = dmaps[0].mapper
        if inner is None:
            decision = _generator_plane([d.generator for d in dmaps])
            if decision.plane is None:
                from repro.schemes import UnsupportedSchemeError

                raise UnsupportedSchemeError(
                    f"DMAP grid has no packed inner plane: {decision.reason}"
                )
            inner = decision.plane
        self.inner = inner
        self.counters = self.inner.counters

    def id_totals(
        self,
        ids: Sequence[int] | np.ndarray,
        weights: Sequence[float] | np.ndarray | None = None,
    ) -> np.ndarray:
        """Per-counter totals of a pre-mapped dyadic-id batch."""
        return self.inner.point_totals(ids, weights)

    def interval_totals(
        self,
        alphas: Sequence[int] | np.ndarray,
        betas: Sequence[int] | np.ndarray,
        weights: Sequence[float] | np.ndarray | None = None,
    ) -> np.ndarray:
        """Per-counter ``sum_k w_k * interval_contribution_c(a_k, b_k)``."""
        from repro.rangesum.batched import dmap_cover_ids

        ids, owner, intervals = dmap_cover_ids(self.mapper, alphas, betas)
        if weights is None:
            piece_weights = None
        else:
            weights = np.asarray(weights, dtype=np.float64).ravel()
            if weights.size != intervals:
                raise ValueError("one weight per interval is required")
            piece_weights = weights[owner]
        return self.inner.point_totals(ids, piece_weights)

    def point_totals(
        self,
        points: Sequence[int] | np.ndarray,
        weights: Sequence[float] | np.ndarray | None = None,
    ) -> np.ndarray:
        """Per-counter ``sum_p w_p * point_contribution_c(p)``."""
        from repro.rangesum.batched import dmap_point_id_table

        ids = dmap_point_id_table(self.mapper, np.asarray(points, dtype=np.uint64))
        if weights is None:
            flat_weights = None
        else:
            weights = np.asarray(weights, dtype=np.float64).ravel()
            if weights.size != ids.shape[1]:
                raise ValueError("weights must match points element-wise")
            flat_weights = np.tile(weights, ids.shape[0])
        return self.inner.point_totals(ids.ravel(), flat_weights)


@dataclass(frozen=True)
class PlaneDecision:
    """Whether a grid has a packed plane -- and if not, why.

    ``plane`` is the kernel instance or ``None``; ``reason`` is a
    human-readable explanation of the miss (scheme name plus the missing
    capability), surfaced by :meth:`StreamProcessor.stats` telemetry and
    :func:`require_plane`.
    """

    plane: Any | None
    reason: str | None = None


def _generator_plane(generators: Sequence) -> PlaneDecision:
    """Decide the packed plane of a plain generator grid via the registry."""
    from repro.schemes import spec_for

    specs = [spec_for(g) for g in generators]
    if any(spec is None for spec in specs):
        unknown = sorted(
            {
                type(g).__name__
                for g, spec in zip(generators, specs)
                if spec is None
            }
        )
        return PlaneDecision(
            None,
            f"unregistered generator type(s): {', '.join(unknown)}",
        )
    names = sorted({spec.name for spec in specs})
    if len(names) != 1:
        return PlaneDecision(
            None, f"grid mixes schemes: {', '.join(names)}"
        )
    spec = specs[0]
    if spec.plane is None:
        return PlaneDecision(
            None,
            f"scheme {spec.name!r} declares no packed plane kernel "
            "(capability 'plane' missing)",
        )
    try:
        return PlaneDecision(spec.plane(list(generators)))
    except ValueError as exc:
        return PlaneDecision(
            None, f"scheme {spec.name!r} plane kernel rejected the grid: {exc}"
        )


def _dmap_plane(dmaps: Sequence) -> PlaneDecision:
    """Decide the packed plane of a DMAP grid via the inner generators."""
    from repro.schemes import spec_for

    inner_generators = [d.generator for d in dmaps]
    specs = [spec_for(g) for g in inner_generators]
    if all(spec is not None for spec in specs):
        names = {spec.name for spec in specs}
        if len(names) == 1 and not specs[0].dmap_inner:
            return PlaneDecision(
                None,
                f"DMAP inner scheme {specs[0].name!r} is not declared "
                "DMAP-compatible (capability 'dmap_inner' missing)",
            )
    inner = _generator_plane(inner_generators)
    if inner.plane is None:
        return PlaneDecision(
            None, f"DMAP grid has no packed inner plane: {inner.reason}"
        )
    bits = {d.mapper.domain_bits for d in dmaps}
    if len(bits) != 1:
        return PlaneDecision(None, "plane DMAPs must share a domain")
    return PlaneDecision(DMAPPlane(dmaps, inner.plane))


def _decide_plane(scheme: "SketchScheme") -> PlaneDecision:
    """Pack a scheme's grid into the matching plane, with a reason on miss.

    The grid's channel shape is read off the registry's channel codecs
    (:func:`repro.schemes.channel_kind`), so the plane layer needs no
    hard-wired channel classes.
    """
    from repro.schemes import channel_kind

    channels = [channel for row in scheme.channels for channel in row]
    kinds = {channel_kind(c) for c in channels}
    if kinds == {"generator"}:
        return _generator_plane([c.generator for c in channels])
    if kinds == {"dmap"}:
        return _dmap_plane([c.dmap for c in channels])
    names = sorted({type(c).__name__ for c in channels})
    return PlaneDecision(
        None,
        f"no packed plane covers channel kind(s): {', '.join(names)}",
    )


def plane_decision(scheme: "SketchScheme") -> PlaneDecision:
    """The grid's packed-plane decision, built once and cached.

    Unlike :func:`counter_plane` this keeps the *reason* when no kernel
    covers the grid, so callers (telemetry, :func:`require_plane`) can
    name the scheme and the missing capability instead of reporting an
    opaque ``None``.
    """
    decision = getattr(scheme, "_plane_decision", None)
    if decision is None:
        decision = scheme._plane_decision = _decide_plane(scheme)
    return decision


def counter_plane(scheme: "SketchScheme") -> Any | None:
    """The packed plane of a scheme's seeds, built once and cached.

    Returns ``None`` for grids the packed kernels do not cover (mixed or
    product channels, RM7, ...); callers fall back to the scalar path.
    Use :func:`plane_decision` to learn *why* a grid is uncovered, or
    :func:`require_plane` to fail loudly instead.
    """
    return plane_decision(scheme).plane


def require_plane(scheme: "SketchScheme") -> Any:
    """The grid's packed plane, or a typed error naming what is missing.

    Raises :class:`repro.schemes.UnsupportedSchemeError` (a
    ``TypeError``) carrying the decision's reason when no kernel covers
    the grid -- for callers that must not silently degrade to the
    scalar path.
    """
    decision = plane_decision(scheme)
    if decision.plane is None:
        from repro.schemes import UnsupportedSchemeError

        raise UnsupportedSchemeError(
            f"no packed plane covers this grid: {decision.reason}"
        )
    return decision.plane


def add_totals(sketch: "SketchMatrix", totals: np.ndarray) -> None:
    """Commit per-counter totals (row-major) to the sketch in one array add."""
    obs.counter("sketch.plane.cells_updated_total").inc(int(np.size(totals)))
    sketch.table += np.reshape(totals, sketch.table.shape)
