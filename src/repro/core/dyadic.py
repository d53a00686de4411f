"""Dyadic intervals and minimal dyadic covers (paper Section 2.3, Figure 1).

A *dyadic interval* over a domain of size ``2^n`` is an interval of the form
``[q * 2^j, (q+1) * 2^j)`` with ``0 <= j <= n`` and ``0 <= q < 2^(n-j)``.
Every interval ``[alpha, beta]`` has a unique minimal decomposition into at
most ``2n - 2`` dyadic intervals, computable directly from the binary
representations of the end-points.  This decomposition is the backbone of:

* all fast range-summation algorithms (sum per dyadic piece, add up), and
* the DMAP baseline of Das et al., which maps intervals to their covers and
  points to their ``n + 1`` containing dyadic intervals.

The EH3 range-sum theorem (Theorem 2) applies to *quaternary* dyadic
intervals ``[q * 4^j, (q+1) * 4^j)``; :func:`minimal_quaternary_cover`
produces such a cover by splitting odd-level pieces of the binary cover.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "DyadicInterval",
    "minimal_dyadic_cover",
    "minimal_quaternary_cover",
    "CoverArrays",
    "dyadic_cover_arrays",
    "quaternary_cover_arrays",
    "containing_intervals",
    "interval_id",
    "interval_from_id",
    "all_dyadic_intervals",
    "render_dyadic_tree",
]


@dataclass(frozen=True, order=True)
class DyadicInterval:
    """The dyadic interval ``[offset * 2^level, (offset+1) * 2^level)``.

    ``level`` is the ``j`` of the paper's ``[q 2^j, (q+1) 2^j)`` notation
    and ``offset`` is the ``q``.
    """

    level: int
    offset: int

    def __post_init__(self) -> None:
        if self.level < 0:
            raise ValueError(f"level must be non-negative, got {self.level}")
        if self.offset < 0:
            raise ValueError(f"offset must be non-negative, got {self.offset}")

    @property
    def low(self) -> int:
        """Inclusive lower end-point ``q * 2^j``."""
        return self.offset << self.level

    @property
    def high(self) -> int:
        """Exclusive upper end-point ``(q+1) * 2^j``."""
        return (self.offset + 1) << self.level

    @property
    def size(self) -> int:
        """Number of domain points covered, ``2^level``."""
        return 1 << self.level

    def contains(self, point: int) -> bool:
        """Whether ``point`` lies inside the interval."""
        return self.low <= point < self.high

    def split(self) -> tuple["DyadicInterval", "DyadicInterval"]:
        """The two dyadic children one level down."""
        if self.level == 0:
            raise ValueError("a singleton dyadic interval cannot be split")
        left = DyadicInterval(self.level - 1, self.offset * 2)
        right = DyadicInterval(self.level - 1, self.offset * 2 + 1)
        return left, right

    def parent(self) -> "DyadicInterval":
        """The enclosing dyadic interval one level up."""
        return DyadicInterval(self.level + 1, self.offset >> 1)

    def points(self) -> range:
        """All domain points in the interval (small intervals only)."""
        return range(self.low, self.high)

    def __repr__(self) -> str:
        return f"Dyadic[{self.low}, {self.high})"


def minimal_dyadic_cover(alpha: int, beta: int) -> list[DyadicInterval]:
    """Minimal dyadic cover of the inclusive interval ``[alpha, beta]``.

    Greedy construction: repeatedly take the largest dyadic block that is
    aligned at the current start and fits inside the remaining range.  This
    is exactly the unique minimal cover, with at most ``2n - 2`` pieces for
    a domain of ``2^n`` points, and runs in time proportional to the number
    of output pieces.
    """
    if alpha < 0:
        raise ValueError(f"alpha must be non-negative, got {alpha}")
    if beta < alpha:
        raise ValueError(f"empty interval [{alpha}, {beta}]")
    cover: list[DyadicInterval] = []
    position = alpha
    remaining = beta - alpha + 1
    while remaining > 0:
        if position == 0:
            alignment = remaining.bit_length() - 1  # only size caps apply
        else:
            alignment = (position & -position).bit_length() - 1
        fit = remaining.bit_length() - 1  # largest 2^l <= remaining
        level = min(alignment, fit)
        cover.append(DyadicInterval(level, position >> level))
        position += 1 << level
        remaining -= 1 << level
    return cover


def minimal_quaternary_cover(alpha: int, beta: int) -> list[DyadicInterval]:
    """Cover of ``[alpha, beta]`` by intervals ``[q 4^j, (q+1) 4^j)``.

    Produced from the minimal binary cover by splitting every odd-level
    piece into its two even-level children, so the result has at most twice
    as many pieces; every returned interval has an even ``level`` and is
    therefore of the ``4^j``-sized shape Theorem 2 requires.
    """
    cover: list[DyadicInterval] = []
    for piece in minimal_dyadic_cover(alpha, beta):
        if piece.level % 2 == 0:
            cover.append(piece)
        else:
            left, right = piece.split()
            cover.append(left)
            cover.append(right)
    return cover


@dataclass
class CoverArrays:
    """Flattened minimal covers of a batch of intervals, as numpy arrays.

    ``lows[p]`` and ``levels[p]`` describe one dyadic piece
    ``[lows[p], lows[p] + 2^levels[p])``; ``index[p]`` names the interval
    (by batch position) the piece covers.  Pieces are ordered exactly as
    the scalar covers emit them: grouped by interval, ascending position.
    """

    lows: np.ndarray  # uint64, piece lower end-points
    levels: np.ndarray  # int64, piece levels
    index: np.ndarray  # int64, owning interval position in the batch
    intervals: int  # number of intervals in the batch

    def counts(self) -> np.ndarray:
        """Pieces per interval, aligned with the input batch."""
        return np.bincount(self.index, minlength=self.intervals)


#: Most cells one cover grid holds.  A batch's grid has one row per
#: interval and one slot per candidate piece (up to 192 for 63-bit
#: quaternary covers); larger batches are covered a block of rows at a
#: time, so a WAL replay or a huge user batch holds ~0.5 MB per grid
#: array whatever its size (and smaller blocks stay in cache).
COVER_CELLS = 1 << 16


@functools.lru_cache(maxsize=None)
def _grid_layout(width: int, quaternary: bool) -> tuple[np.ndarray, ...]:
    """Constants of a cover grid ``width`` levels wide.

    A row lists every piece its interval may have, by ascending position:
    left pieces ``[lo 2^j, (lo+1) 2^j)`` by ascending level ``j``, then
    right pieces ``[(hi-1) 2^j, hi 2^j)`` by descending level.  In a
    quaternary grid an odd-level piece takes two slots, its lower and
    upper even-level children.  Returns the levels ``j`` and ``2^j - 1``,
    then per slot: the column of ``[lo | hi]`` it reads, its ``j``, the
    offset added to that bound ``<< j``, and the emitted piece's level.
    """
    shifts = np.arange(width, dtype=np.uint64)
    level = np.concatenate((shifts, shifts[::-1]))
    right = (np.arange(2 * width, dtype=np.int64) >= width).astype(np.uint64)
    split = level & np.uint64(quaternary)
    slot = np.repeat(np.arange(2 * width, dtype=np.int64), 1 + split.astype(np.int64))
    upper = np.zeros(slot.size, dtype=np.uint64)
    upper[1:] = slot[1:] == slot[:-1]
    levels = (level - split)[slot]
    # (hi - 1) << j = (hi << j) - 2^j, and an upper child sits 2^(j-1)
    # past its parent; uint64 wraps, so the sum is exact.
    adjust = (upper << levels) - (right[slot] << level[slot])
    masks = (np.uint64(1) << shifts) - np.uint64(1)
    source = (right * np.uint64(width) + level)[slot]
    return shifts, masks, source, level[slot], adjust, levels.astype(np.int64)


def _cover(
    alphas: Sequence[int] | np.ndarray,
    betas: Sequence[int] | np.ndarray,
    quaternary: bool,
) -> CoverArrays:
    alphas = np.asarray(alphas, dtype=np.uint64)
    betas = np.asarray(betas, dtype=np.uint64)
    if alphas.shape != betas.shape or alphas.ndim != 1:
        raise ValueError("alphas and betas must be matching 1-D arrays")
    count = len(alphas)
    if count == 0:
        empty_i = np.zeros(0, dtype=np.int64)
        return CoverArrays(np.zeros(0, dtype=np.uint64), empty_i.copy(), empty_i, 0)
    if bool(np.any(betas < alphas)):
        bad = int(np.argmax(betas < alphas))
        raise ValueError(
            f"empty interval [{int(alphas[bad])}, {int(betas[bad])}]"
        )
    top = int(betas.max())
    if top >= (1 << 63):
        # The grid forms alpha + (2^j - 1) and beta + 1 in uint64; 64-bit
        # domains (a single piece of level 64) stay on the scalar path,
        # which works over arbitrary Python ints.
        raise OverflowError(
            "dyadic_cover_arrays supports end-points below 2^63; use "
            "minimal_dyadic_cover for full 64-bit domains"
        )
    # A level-j piece needs 2^j <= beta + 1, so levels 0..bit_length(beta)
    # hold every piece of the batch.
    width = top.bit_length() + 1
    shifts, masks, source, level, adjust, levels = _grid_layout(width, quaternary)
    one = np.uint64(1)
    rows = max(1, COVER_CELLS // source.size)
    parts = []
    for first in range(0, count, rows):
        a = alphas[first : first + rows, None]
        b = betas[first : first + rows, None]
        lo = (a + masks) >> shifts  # ceil(alpha / 2^j)
        hi = (b + one) >> shifts  # floor((beta + 1) / 2^j)
        ends = np.concatenate((lo, hi), axis=1)[:, source]
        flat = np.flatnonzero((lo < hi)[:, level] & (ends & one).astype(bool))
        row, slot = np.divmod(flat, source.size)
        lows = (ends.reshape(-1)[flat] << level[slot]) + adjust[slot]
        parts.append((lows, levels[slot], row + first))
    if len(parts) == 1:
        lows, piece_levels, index = parts[0]
    else:
        lows, piece_levels, index = (np.concatenate(part) for part in zip(*parts))
    return CoverArrays(lows, piece_levels, index, count)


def dyadic_cover_arrays(
    alphas: Sequence[int] | np.ndarray, betas: Sequence[int] | np.ndarray
) -> CoverArrays:
    """Minimal dyadic covers of a whole batch of inclusive intervals.

    The minimal cover has at most one left piece (where ``lo =
    ceil(alpha / 2^j)`` is odd) and one right piece (where ``hi =
    floor((beta + 1) / 2^j)`` is odd) per level ``j`` with ``lo < hi``.
    Both bounds are formed for every level at once, as an ``(intervals,
    2 * width)`` grid with right pieces' columns reversed, so one
    ``flatnonzero`` lists the pieces grouped by interval in ascending
    position: a fixed number of numpy passes per block of
    :data:`COVER_CELLS` cells, no per-level or per-interval Python loop.
    Piece-for-piece identical (including order) to
    :func:`minimal_dyadic_cover` applied per interval.
    """
    return _cover(alphas, betas, quaternary=False)


def quaternary_cover_arrays(
    alphas: Sequence[int] | np.ndarray, betas: Sequence[int] | np.ndarray
) -> CoverArrays:
    """Even-level (``4^j``-shaped) covers of a batch of intervals.

    The batched counterpart of :func:`minimal_quaternary_cover`, built in
    the same grid pass as :func:`dyadic_cover_arrays`: every odd-level
    column holds two slots, the piece's lower and upper even-level
    children, so the split costs no extra pass and the order again
    matches the scalar construction piece for piece.
    """
    return _cover(alphas, betas, quaternary=True)


def containing_intervals(point: int, n: int) -> list[DyadicInterval]:
    """The ``n + 1`` dyadic intervals over a ``2^n`` domain containing ``point``.

    This is the DMAP mapping for a point update: one interval per level,
    from the singleton ``[point, point + 1)`` up to the whole domain.
    """
    if not 0 <= point < (1 << n):
        raise ValueError(f"point {point} outside domain of size 2^{n}")
    return [DyadicInterval(j, point >> j) for j in range(n + 1)]


def interval_id(interval: DyadicInterval, n: int) -> int:
    """Heap-style unique id of a dyadic interval over a ``2^n`` domain.

    The whole domain gets id 1, its children 2 and 3, and so on:
    ``id = 2^(n - level) + offset``.  Ids range over ``[1, 2^(n+1))`` --
    this is the derived domain DMAP sketches over.
    """
    if interval.level > n or interval.high > (1 << n):
        raise ValueError(f"{interval} does not fit a 2^{n} domain")
    return (1 << (n - interval.level)) + interval.offset


def interval_from_id(identifier: int, n: int) -> DyadicInterval:
    """Inverse of :func:`interval_id`."""
    if not 1 <= identifier < (1 << (n + 1)):
        raise ValueError(f"id {identifier} outside [1, 2^{n + 1})")
    depth = identifier.bit_length() - 1  # 0 for the root
    level = n - depth
    offset = identifier - (1 << depth)
    return DyadicInterval(level, offset)


def all_dyadic_intervals(n: int) -> Iterator[DyadicInterval]:
    """Yield every dyadic interval of a ``2^n`` domain, largest first."""
    for level in range(n, -1, -1):
        for offset in range(1 << (n - level)):
            yield DyadicInterval(level, offset)


def render_dyadic_tree(n: int) -> str:
    """ASCII rendering of the dyadic-interval hierarchy (paper Figure 1).

    Each row is one level; each cell spans the domain points it covers.
    Intended for domains up to ``2^5`` or so.
    """
    if n < 0 or n > 6:
        raise ValueError("render_dyadic_tree is meant for small domains (n <= 6)")
    width_per_point = max(4, len(str((1 << n) - 1)) + 3)
    lines = []
    for level in range(n, -1, -1):
        cells = []
        for offset in range(1 << (n - level)):
            interval = DyadicInterval(level, offset)
            label = f"[{interval.low},{interval.high})"
            cells.append(label.center(interval.size * width_per_point - 1, "-"))
        lines.append("|" + "|".join(cells) + "|")
    header = "".join(
        str(p).center(width_per_point) for p in range(1 << n)
    )
    return "\n".join(lines + [header])
