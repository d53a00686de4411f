"""Tests for dyadic intervals and minimal covers (paper Section 2.3)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import dyadic
from repro.core.dyadic import (
    DyadicInterval,
    all_dyadic_intervals,
    containing_intervals,
    dyadic_cover_arrays,
    interval_from_id,
    interval_id,
    minimal_dyadic_cover,
    minimal_quaternary_cover,
    quaternary_cover_arrays,
    render_dyadic_tree,
)


class TestDyadicInterval:
    def test_endpoints_and_size(self):
        interval = DyadicInterval(level=3, offset=2)
        assert interval.low == 16
        assert interval.high == 24
        assert interval.size == 8

    def test_contains(self):
        interval = DyadicInterval(2, 1)  # [4, 8)
        assert interval.contains(4)
        assert interval.contains(7)
        assert not interval.contains(8)
        assert not interval.contains(3)

    def test_split_and_parent_roundtrip(self):
        interval = DyadicInterval(4, 3)
        left, right = interval.split()
        assert left.parent() == interval
        assert right.parent() == interval
        assert left.low == interval.low
        assert right.high == interval.high
        assert left.high == right.low

    def test_singleton_cannot_split(self):
        with pytest.raises(ValueError):
            DyadicInterval(0, 5).split()

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            DyadicInterval(-1, 0)
        with pytest.raises(ValueError):
            DyadicInterval(0, -1)


class TestMinimalDyadicCover:
    def test_paper_example_interval(self):
        # Example 1 of the paper decomposes [124, 197] (inclusive).
        cover = minimal_dyadic_cover(124, 197)
        spans = [(piece.low, piece.high) for piece in cover]
        assert spans == [(124, 128), (128, 192), (192, 196), (196, 198)]

    def test_whole_domain_is_one_piece(self):
        cover = minimal_dyadic_cover(0, 255)
        assert len(cover) == 1
        assert cover[0] == DyadicInterval(8, 0)

    def test_singleton(self):
        assert minimal_dyadic_cover(5, 5) == [DyadicInterval(0, 5)]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            minimal_dyadic_cover(5, 4)
        with pytest.raises(ValueError):
            minimal_dyadic_cover(-1, 3)

    @given(st.data())
    def test_cover_properties(self, data):
        n = data.draw(st.integers(min_value=1, max_value=16))
        alpha = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
        beta = data.draw(st.integers(min_value=alpha, max_value=(1 << n) - 1))
        cover = minimal_dyadic_cover(alpha, beta)
        # Pieces are disjoint, contiguous, and exactly cover [alpha, beta].
        position = alpha
        for piece in cover:
            assert piece.low == position
            position = piece.high
        assert position == beta + 1
        # Paper bound: at most 2n - 2 pieces for n >= 2.
        assert len(cover) <= max(2 * n - 2, 1)

    @given(st.data())
    def test_cover_is_minimal(self, data):
        """No two adjacent pieces can merge into a single dyadic interval."""
        n = data.draw(st.integers(min_value=1, max_value=12))
        alpha = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
        beta = data.draw(st.integers(min_value=alpha, max_value=(1 << n) - 1))
        cover = minimal_dyadic_cover(alpha, beta)
        for a, b in zip(cover, cover[1:]):
            merged_as_one = (
                a.level == b.level
                and a.offset % 2 == 0
                and b.offset == a.offset + 1
            )
            assert not merged_as_one


class TestQuaternaryCover:
    def test_paper_example(self):
        # The quaternary cover of Example 1: five pieces, sizes 4,64,4,1,1.
        cover = minimal_quaternary_cover(124, 197)
        spans = [(piece.low, piece.high) for piece in cover]
        assert spans == [
            (124, 128),
            (128, 192),
            (192, 196),
            (196, 197),
            (197, 198),
        ]

    @given(st.data())
    def test_all_levels_even(self, data):
        n = data.draw(st.integers(min_value=1, max_value=14))
        alpha = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
        beta = data.draw(st.integers(min_value=alpha, max_value=(1 << n) - 1))
        cover = minimal_quaternary_cover(alpha, beta)
        position = alpha
        for piece in cover:
            assert piece.level % 2 == 0
            assert piece.low == position
            position = piece.high
        assert position == beta + 1

    @given(st.data())
    def test_at_most_twice_binary_cover(self, data):
        n = data.draw(st.integers(min_value=1, max_value=14))
        alpha = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
        beta = data.draw(st.integers(min_value=alpha, max_value=(1 << n) - 1))
        binary = minimal_dyadic_cover(alpha, beta)
        quaternary = minimal_quaternary_cover(alpha, beta)
        assert len(binary) <= len(quaternary) <= 2 * len(binary)


class TestContainingIntervals:
    def test_count_is_n_plus_one(self):
        assert len(containing_intervals(5, 4)) == 5

    def test_all_contain_the_point(self):
        for point in (0, 7, 15):
            for interval in containing_intervals(point, 4):
                assert interval.contains(point)

    def test_one_per_level(self):
        levels = [i.level for i in containing_intervals(9, 4)]
        assert levels == [0, 1, 2, 3, 4]

    def test_out_of_domain_rejected(self):
        with pytest.raises(ValueError):
            containing_intervals(16, 4)

    def test_exactly_one_cover_member_contains_any_inside_point(self):
        """The identity DMAP rests on (paper Section 5.2)."""
        n = 8
        alpha, beta = 37, 200
        cover = minimal_dyadic_cover(alpha, beta)
        cover_set = set(cover)
        for point in range(1 << n):
            containing = [
                i for i in containing_intervals(point, n) if i in cover_set
            ]
            assert len(containing) == (1 if alpha <= point <= beta else 0)


class TestIntervalIds:
    def test_root_is_one(self):
        assert interval_id(DyadicInterval(4, 0), 4) == 1

    def test_singletons_fill_top_range(self):
        n = 4
        ids = [interval_id(DyadicInterval(0, q), n) for q in range(1 << n)]
        assert ids == list(range(1 << n, 1 << (n + 1)))

    def test_roundtrip_all(self):
        n = 6
        for interval in all_dyadic_intervals(n):
            identifier = interval_id(interval, n)
            assert interval_from_id(identifier, n) == interval

    def test_ids_unique(self):
        n = 6
        ids = [interval_id(i, n) for i in all_dyadic_intervals(n)]
        assert len(ids) == len(set(ids))
        assert min(ids) == 1
        assert max(ids) == (1 << (n + 1)) - 1

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            interval_id(DyadicInterval(5, 0), 4)
        with pytest.raises(ValueError):
            interval_from_id(0, 4)
        with pytest.raises(ValueError):
            interval_from_id(1 << 5, 4)


class TestEnumerationAndRendering:
    def test_total_interval_count(self):
        # 2^(n+1) - 1 dyadic intervals over a 2^n domain.
        for n in range(5):
            assert len(list(all_dyadic_intervals(n))) == (1 << (n + 1)) - 1

    def test_render_figure1_domain(self):
        art = render_dyadic_tree(4)
        assert "[0,16)" in art
        assert "[8,16)" in art
        assert "[15,16)" in art
        # n + 1 interval rows plus the axis row.
        assert len(art.splitlines()) == 6

    def test_render_rejects_large_domains(self):
        with pytest.raises(ValueError):
            render_dyadic_tree(10)


class TestCoverArrays:
    """Batched covers must equal the scalar covers piece for piece."""

    @staticmethod
    def _intervals(raw):
        return [(min(a, b), max(a, b)) for a, b in raw]

    @given(
        st.lists(
            st.tuples(
                st.integers(0, (1 << 62) - 1), st.integers(0, (1 << 62) - 1)
            ),
            max_size=10,
        )
    )
    def test_dyadic_matches_scalar(self, raw):
        from repro.core.dyadic import dyadic_cover_arrays

        intervals = self._intervals(raw)
        cover = dyadic_cover_arrays(
            [a for a, _ in intervals], [b for _, b in intervals]
        )
        expected = [
            (position, piece.low, piece.level)
            for position, (alpha, beta) in enumerate(intervals)
            for piece in minimal_dyadic_cover(alpha, beta)
        ]
        got = list(
            zip(
                cover.index.tolist(),
                cover.lows.tolist(),
                cover.levels.tolist(),
            )
        )
        assert got == expected
        assert cover.intervals == len(intervals)
        assert cover.counts().tolist() == [
            len(minimal_dyadic_cover(a, b)) for a, b in intervals
        ]

    @given(
        st.lists(
            st.tuples(
                st.integers(0, (1 << 62) - 1), st.integers(0, (1 << 62) - 1)
            ),
            max_size=10,
        )
    )
    def test_quaternary_matches_scalar(self, raw):
        from repro.core.dyadic import quaternary_cover_arrays

        intervals = self._intervals(raw)
        cover = quaternary_cover_arrays(
            [a for a, _ in intervals], [b for _, b in intervals]
        )
        expected = [
            (position, piece.low, piece.level)
            for position, (alpha, beta) in enumerate(intervals)
            for piece in minimal_quaternary_cover(alpha, beta)
        ]
        got = list(
            zip(
                cover.index.tolist(),
                cover.lows.tolist(),
                cover.levels.tolist(),
            )
        )
        assert got == expected
        assert not any(level % 2 for level in cover.levels.tolist())

    def test_empty_batch(self):
        for batched in (dyadic_cover_arrays, quaternary_cover_arrays):
            cover = batched(np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.uint64))
            assert cover.intervals == 0
            assert cover.lows.size == 0
            assert cover.counts().tolist() == []
            assert (cover.lows.dtype, cover.levels.dtype, cover.index.dtype) == (
                np.uint64,
                np.int64,
                np.int64,
            )

    def test_full_domain_single_piece(self):
        from repro.core.dyadic import dyadic_cover_arrays

        cover = dyadic_cover_arrays([0], [(1 << 62) - 1])
        assert cover.lows.tolist() == [0]
        assert cover.levels.tolist() == [62]

    def test_reversed_interval_rejected(self):
        from repro.core.dyadic import dyadic_cover_arrays

        with pytest.raises(ValueError):
            dyadic_cover_arrays([5], [4])

    def test_beyond_63_bits_overflows(self):
        for batched in (dyadic_cover_arrays, quaternary_cover_arrays):
            with pytest.raises(OverflowError):
                batched([0, 1], [5, 1 << 63])


TOP = (1 << 63) - 1  # largest end-point the grid covers


def _assert_covers_match_scalar(alphas, betas) -> None:
    """Both batched covers equal the scalar ones piece for piece.

    Lows, levels and owners must agree in value and order, in the dtypes
    the kernels consume (``uint64`` lows, ``int64`` levels and owners).
    """
    bounds = list(zip([int(a) for a in alphas], [int(b) for b in betas]))
    for batched, scalar in (
        (dyadic_cover_arrays, minimal_dyadic_cover),
        (quaternary_cover_arrays, minimal_quaternary_cover),
    ):
        cover = batched(alphas, betas)
        assert cover.lows.dtype == np.uint64
        assert cover.levels.dtype == np.int64
        assert cover.index.dtype == np.int64
        assert cover.intervals == len(bounds)
        expected = [
            (owner, piece.low, piece.level)
            for owner, (alpha, beta) in enumerate(bounds)
            for piece in scalar(alpha, beta)
        ]
        got = list(
            zip(cover.index.tolist(), cover.lows.tolist(), cover.levels.tolist())
        )
        assert got == expected, batched.__name__


class TestCoverGrid:
    """The one-pass grid cover against the scalar reference covers."""

    def test_mixed_width_batch(self):
        # The grid is as wide as the batch's largest end-point needs.
        _assert_covers_match_scalar(
            [6, 3, 12_345, 0, 7],
            [6, (1 << 62) - 3, 12_345 + (1 << 40), 1, 7],
        )

    def test_domain_edges(self):
        _assert_covers_match_scalar(
            [0, 0, 1, TOP, TOP - 1, 0, 1 << 62],
            [TOP, 0, TOP, TOP, TOP, TOP - 1, TOP],
        )

    @pytest.mark.parametrize("alpha", [0, 1, 2, 5])
    def test_power_of_two_ends(self, alpha):
        betas = [b for k in range(3, 63) for b in ((1 << k) - 1, 1 << k)]
        _assert_covers_match_scalar([alpha] * len(betas), betas)

    def test_single_points(self):
        points = [0, 1, 2, 3, 10, 11, 1 << 40, (1 << 40) + 1, TOP - 1, TOP]
        _assert_covers_match_scalar(points, points)

    @pytest.mark.parametrize(
        "convert",
        [
            list,
            lambda values: np.asarray(values, dtype=np.int64),
            lambda values: np.asarray(values, dtype=np.uint64),
        ],
        ids=["python-int", "int64", "uint64"],
    )
    def test_input_types(self, convert):
        alphas = [0, 5, 1 << 33, TOP - 9]
        betas = [9, 5, (1 << 33) + 1_000_003, TOP]
        _assert_covers_match_scalar(convert(alphas), convert(betas))

    def test_batch_larger_than_one_chunk(self):
        # 63-bit quaternary rows take 192 slots, so 1,200 intervals span
        # several blocks of COVER_CELLS cells.
        rng = np.random.default_rng(41)
        pairs = np.sort(rng.integers(0, TOP, size=(1_200, 2), dtype=np.uint64), axis=1)
        assert len(pairs) * 192 > dyadic.COVER_CELLS
        _assert_covers_match_scalar(pairs[:, 0], pairs[:, 1])

    def test_one_row_per_chunk(self, monkeypatch):
        monkeypatch.setattr(dyadic, "COVER_CELLS", 1)
        _assert_covers_match_scalar([0, 3, 17, 1 << 50], [5, 3, 1_000, TOP])
