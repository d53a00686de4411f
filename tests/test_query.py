"""The typed query engine: bit-identity, planning, hierarchy surfaces.

This suite is the acceptance gate of the ``repro.query`` refactor:

* **bit-identity** -- every refactored path (point, range-sum, F2,
  join-size; local, stream processor, cluster) must return the exact
  floats of the historical inline reduction
  ``float(np.median((x.values() * y.values()).mean(axis=1)))``, for
  every registered scheme;
* **planner properties** -- every :class:`LevelPlan` tiles its interval
  exactly once and matches the scalar ``core/dyadic`` decomposition;
* **hierarchy** -- interval maintenance lands the same counters as
  point-by-point feeding, descent recovers every true heavy hitter on a
  zipf workload within the paper-predicted error envelope, and the rank
  descent finds the true median.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dyadic import minimal_dyadic_cover, minimal_quaternary_cover
from repro.generators import SeedSource
from repro.query import engine
from repro.query.estimate import (
    empirical_sigma,
    estimate_from_products,
    median_of_means,
    predicted_relative_error,
)
from repro.query.hierarchy import DyadicHierarchy
from repro.query.plan import plan_for_scheme, plan_interval
from repro.query.types import (
    Estimate,
    F2Query,
    HeavyHittersQuery,
    JoinSizeQuery,
    PointQuery,
    QuantileQuery,
    RangeSumQuery,
)
from repro.schemes import get_spec, registered_schemes
from repro.sketch.ams import SketchMatrix, SketchScheme
from repro.sketch.atomic import AtomicSketch

DOMAIN_BITS = 8
MEDIANS = 3
AVERAGES = 8


def _scheme_for(name: str, domain_bits: int = DOMAIN_BITS) -> SketchScheme:
    spec = get_spec(name)
    return SketchScheme.from_generators(
        lambda source: spec.factory(domain_bits, source),
        MEDIANS,
        AVERAGES,
        SeedSource(0xFEED),
    )


def _loaded_pair(name: str) -> tuple[SketchScheme, SketchMatrix, SketchMatrix]:
    scheme = _scheme_for(name)
    rng = np.random.default_rng(5)
    x = scheme.sketch()
    y = scheme.sketch()
    x.update_points(
        rng.integers(0, 1 << DOMAIN_BITS, size=400, dtype=np.uint64)
    )
    y.update_points(
        rng.integers(0, 1 << DOMAIN_BITS, size=400, dtype=np.uint64)
    )
    return scheme, x, y


def _inline_reduce(x: SketchMatrix, y: SketchMatrix) -> float:
    """The pre-refactor estimate: the exact inline reduction it used."""
    return float(np.median((x.values() * y.values()).mean(axis=1)))


# ---------------------------------------------------------------------------
# The shared reduction


class TestEstimateReduction:
    @pytest.mark.parametrize(
        "shape", [(1, 1), (1, 5), (2, 3), (3, 4), (4, 4), (5, 7), (8, 16)]
    )
    def test_median_of_means_bit_identical_to_numpy(self, shape, rng):
        products = rng.normal(scale=100.0, size=shape)
        expected = float(np.median(products.mean(axis=1)))
        assert median_of_means(products) == expected

    @pytest.mark.parametrize("shape", [(1, 1), (2, 3), (3, 4), (5, 7)])
    def test_estimate_value_is_median_of_means(self, shape, rng):
        products = rng.normal(scale=50.0, size=shape)
        est = estimate_from_products(products)
        assert est.value == median_of_means(products)
        assert est.medians == shape[0]
        assert est.averages == shape[1]
        assert est.plan.kind == "none"

    def test_confidence_band_is_sigma_wide(self, rng):
        products = rng.normal(size=(5, 9))
        est = estimate_from_products(products)
        sigma = empirical_sigma(products)
        assert est.ci_high == est.value + sigma
        assert est.ci_low == est.value - sigma
        widened = estimate_from_products(products, error_width_factor=2.5)
        assert widened.ci_high == widened.value + 2.5 * sigma
        assert widened.error_width_factor == 2.5

    def test_rejects_non_grid_input(self):
        with pytest.raises(ValueError):
            estimate_from_products(np.ones(7))
        with pytest.raises(ValueError):
            median_of_means(np.ones((2, 2, 2)))

    def test_predicted_relative_error_formula(self):
        expected = np.sqrt(2.0 / np.pi) * np.sqrt(9.0 / 16.0) / 3.0
        assert predicted_relative_error(9.0, 3.0, 16) == pytest.approx(
            float(expected)
        )
        one_sigma = predicted_relative_error(9.0, 3.0, 16, absolute=False)
        assert one_sigma == pytest.approx(float(np.sqrt(9.0 / 16.0) / 3.0))
        with pytest.raises(ValueError):
            predicted_relative_error(1.0, 0.0, 16)
        with pytest.raises(ValueError):
            predicted_relative_error(1.0, 1.0, 0)


# ---------------------------------------------------------------------------
# Bit-identity of every refactored estimate path, per registered scheme


@pytest.mark.parametrize("name", registered_schemes())
class TestBitIdentity:
    def test_join_size_matches_inline_reduction(self, name):
        _, x, y = _loaded_pair(name)
        assert engine.join_size(x, y).value == _inline_reduce(x, y)

    def test_f2_matches_inline_reduction(self, name):
        _, x, _ = _loaded_pair(name)
        assert engine.self_join(x).value == _inline_reduce(x, x)

    def test_point_matches_probe_sketch(self, name):
        scheme, x, _ = _loaded_pair(name)
        for item in (0, 3, 77, (1 << DOMAIN_BITS) - 1):
            probe = scheme.sketch()
            probe.update_point(item)
            est = engine.point(x, item)
            assert est.value == _inline_reduce(x, probe)
            assert est.plan.kind == "point"

    def test_range_sum_matches_update_interval(self, name):
        scheme, x, _ = _loaded_pair(name)
        rng = np.random.default_rng(17)
        bounds = rng.integers(0, 1 << DOMAIN_BITS, size=(12, 2))
        for a, b in bounds:
            low, high = int(min(a, b)), int(max(a, b))
            probe = scheme.sketch()
            probe.update_interval((low, high))
            est = engine.range_sum(x, low, high)
            assert est.value == _inline_reduce(x, probe)

    def test_execute_on_mapping_matches_direct_calls(self, name):
        _, x, y = _loaded_pair(name)
        sketches = {"r": x, "s": y}
        assert (
            engine.execute(JoinSizeQuery("r", "s"), sketches).value
            == engine.join_size(x, y).value
        )
        assert (
            engine.execute(F2Query("r"), sketches).value
            == engine.self_join(x).value
        )
        assert (
            engine.execute(PointQuery("r", 9), sketches).value
            == engine.point(x, 9).value
        )
        assert (
            engine.execute(RangeSumQuery("r", 10, 90), sketches).value
            == engine.range_sum(x, 10, 90).value
        )


class TestEngineGuards:
    def test_mismatched_schemes_rejected(self):
        _, x, _ = _loaded_pair("eh3")
        _, other, _ = _loaded_pair("bch3")
        with pytest.raises(ValueError, match="share a scheme"):
            engine.product(x, other)

    def test_execute_rejects_hierarchical_on_mapping(self):
        _, x, _ = _loaded_pair("eh3")
        with pytest.raises(TypeError, match="hierarch"):
            engine.execute(HeavyHittersQuery("r", 5.0), {"r": x})
        with pytest.raises(TypeError, match="hierarch"):
            engine.execute(QuantileQuery("r", 0.5), {"r": x})

    def test_execute_rejects_non_target(self):
        with pytest.raises(TypeError):
            engine.execute(F2Query("r"), 42)

    def test_product_of_values_needs_grids(self):
        with pytest.raises(ValueError):
            engine.product_of_values([])

    def test_product_of_values_matches_pairwise(self):
        _, x, y = _loaded_pair("eh3")
        est = engine.product_of_values([x.values(), y.values()])
        assert est.value == _inline_reduce(x, y)


# ---------------------------------------------------------------------------
# Planner properties over a seeded interval population


def _random_bounds(count: int, bits: int, seed: int) -> list[tuple[int, int]]:
    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, 1 << bits, size=(count, 2))
    return [(int(min(a, b)), int(max(a, b))) for a, b in pairs]


@pytest.mark.parametrize("name", registered_schemes())
class TestPlannerProperties:
    def test_plans_cover_exactly_once(self, name):
        scheme = _scheme_for(name)
        for low, high in _random_bounds(60, DOMAIN_BITS, seed=23):
            plan = plan_for_scheme(scheme, low, high)
            assert plan.alpha == low and plan.beta == high
            if plan.kind in ("binary", "quaternary"):
                assert plan.covers_exactly()
            elif plan.kind == "endpoints":
                assert plan.lows.tolist() == [low]
            else:  # scalar: the channels re-derive their own cover
                assert plan.pieces == 0

    def test_plans_match_scalar_dyadic_decomposition(self, name):
        scheme = _scheme_for(name)
        for low, high in _random_bounds(60, DOMAIN_BITS, seed=29):
            plan = plan_for_scheme(scheme, low, high)
            if plan.kind == "binary":
                assert plan.intervals() == minimal_dyadic_cover(low, high)
            elif plan.kind == "quaternary":
                assert plan.intervals() == minimal_quaternary_cover(low, high)
                assert all(level % 2 == 0 for level in plan.levels)

    def test_guarded_bounds_fall_back_to_scalar(self, name):
        scheme = _scheme_for(name)
        assert plan_for_scheme(scheme, -3, 10).kind == "scalar"
        assert plan_for_scheme(scheme, 0, 1 << 63).kind == "scalar"
        assert plan_for_scheme(scheme, 0.5, 10).kind == "scalar"


class TestPlanInterval:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown decomposition"):
            plan_interval(0, 7, "hexary")

    def test_stats_shape(self):
        plan = plan_interval(3, 200, "binary")
        stats = plan.stats()
        assert stats.kind == "binary"
        assert stats.pieces == plan.pieces
        assert stats.max_level == max(plan.levels)

    def test_scalar_plan_has_no_dyadic_intervals(self):
        plan = plan_interval(-1, 10, "binary")
        assert plan.kind == "scalar"
        with pytest.raises(ValueError):
            plan.intervals()
        with pytest.raises(ValueError):
            plan.totals(None)

    @pytest.mark.parametrize("kind", ["binary", "quaternary"])
    def test_62_bit_plans_cover_exactly(self, kind):
        scalar = {"binary": minimal_dyadic_cover, "quaternary": minimal_quaternary_cover}
        top = (1 << 63) - 1
        bounds = _random_bounds(40, 62, seed=31) + [
            (0, top), (1, top), (top, top), (0, (1 << 62) - 1), (3, 1 << 62)
        ]
        for low, high in bounds:
            plan = plan_interval(low, high, kind)
            assert plan.kind == kind
            assert plan.covers_exactly()
            assert plan.intervals() == scalar[kind](low, high)
            assert (plan.lows.dtype, plan.levels.dtype) == (np.uint64, np.int64)
        assert plan_interval(0, 1 << 63, kind).kind == "scalar"


# ---------------------------------------------------------------------------
# The dyadic hierarchy: maintenance exactness and descent surfaces


def _hierarchy(
    bits: int = 6, averages: int = AVERAGES, scheme: str = "eh3"
) -> DyadicHierarchy:
    spec = get_spec(scheme)
    grid = SketchScheme.from_generators(
        lambda source: spec.factory(bits, source),
        MEDIANS,
        averages,
        SeedSource(0xFEED),
    )
    return DyadicHierarchy(grid, bits)


def _assert_levels_match_cells(
    hierarchy: DyadicHierarchy, frequencies: np.ndarray
) -> None:
    """Every level's counters equal per-cell :class:`AtomicSketch`
    references fed that level's block frequencies (integer weights keep
    every float sum exact, so equality is exact)."""
    for level in range(hierarchy.levels):
        blocks = frequencies.reshape(-1, 1 << level).sum(axis=1)
        support = np.flatnonzero(blocks)
        values = hierarchy.sketch_at(level).values()
        for r, row in enumerate(hierarchy.scheme.channels):
            for c, channel in enumerate(row):
                reference = AtomicSketch(channel)
                reference.update_points(support.astype(np.uint64), blocks[support])
                assert values[r, c] == reference.value, (level, r, c)


class TestHierarchyMaintenance:
    def test_interval_update_matches_point_feeding(self):
        fast = _hierarchy()
        slow = _hierarchy()
        fast.update_interval(5, 37, weight=2.0)
        for item in range(5, 38):
            slow.update_point(item, weight=2.0)
        for level in range(fast.levels):
            np.testing.assert_array_equal(
                fast.sketch_at(level).values(),
                slow.sketch_at(level).values(),
            )

    def test_batched_points_match_single_points(self):
        batched = _hierarchy()
        single = _hierarchy()
        items = [3, 9, 9, 41, 60]
        batched.update_points(items)
        for item in items:
            single.update_point(item)
        for level in range(batched.levels):
            np.testing.assert_array_equal(
                batched.sketch_at(level).values(),
                single.sketch_at(level).values(),
            )

    def test_levels_match_per_cell_references(self):
        hierarchy = _hierarchy()
        hierarchy.update_points([1, 17, 33])
        hierarchy.update_interval(8, 23)
        frequencies = np.zeros(64)
        frequencies[[1, 17, 33]] += 1.0
        frequencies[8:24] += 1.0
        _assert_levels_match_cells(hierarchy, frequencies)

    def test_estimate_blocks_bit_identical_to_point_queries(self):
        hierarchy = _hierarchy()
        rng = np.random.default_rng(3)
        hierarchy.update_points(
            rng.integers(0, 64, size=500, dtype=np.uint64)
        )
        for level in (0, 2, 5):
            blocks = list(range(0, 64 >> level, 3))
            batched = hierarchy.estimate_blocks(level, blocks)
            for position, block in enumerate(blocks):
                direct = engine.point(
                    hierarchy.sketch_at(level), block
                ).value
                assert batched[position] == direct

    def test_counters_roundtrip(self):
        original = _hierarchy()
        original.update_points([2, 2, 50])
        restored = _hierarchy()
        restored.restore_counters(original.counters_state())
        for level in range(original.levels):
            np.testing.assert_array_equal(
                restored.sketch_at(level).values(),
                original.sketch_at(level).values(),
            )
        with pytest.raises(ValueError, match="levels"):
            restored.restore_counters([[[0.0]]])

    def test_restore_rejects_a_wrong_grid_shape(self):
        hierarchy = _hierarchy()
        hierarchy.update_points([2, 2, 50])
        before = hierarchy.counters_state()
        # Right level count, one cell per level: zip would have
        # truncated this onto cell (0, 0) of every level.
        with pytest.raises(ValueError, match="levels, medians, averages"):
            hierarchy.restore_counters([[[5.0]]] * hierarchy.levels)
        ragged = [level[:-1] for level in before]
        with pytest.raises(ValueError):
            hierarchy.restore_counters(ragged)
        assert hierarchy.counters_state() == before

    def test_restore_rejects_non_finite_counters(self):
        hierarchy = _hierarchy()
        state = hierarchy.counters_state()
        state[3][1][2] = float("nan")
        with pytest.raises(ValueError, match="non-finite"):
            hierarchy.restore_counters(state)
        state[3][1][2] = float("inf")
        with pytest.raises(ValueError, match="non-finite"):
            hierarchy.restore_counters(state)

    @pytest.mark.parametrize("scheme", ["rm7", "toeplitz"])
    def test_plane_less_schemes_sign_from_their_generators(self, scheme):
        hierarchy = _hierarchy(scheme=scheme)
        assert hierarchy.scheme.plane() is None
        hierarchy.update_points([1, 17, 33, 33], [1.0, 2.0, -1.0, 3.0])
        hierarchy.update_intervals([[8, 23], [0, 63]])
        frequencies = np.ones(64)
        np.add.at(frequencies, [1, 17, 33, 33], [1.0, 2.0, -1.0, 3.0])
        frequencies[8:24] += 1.0
        _assert_levels_match_cells(hierarchy, frequencies)
        blocks = [0, 1, 4, 7]
        batched = hierarchy.estimate_blocks(2, blocks)
        for position, block in enumerate(blocks):
            assert batched[position] == engine.point(hierarchy.sketch_at(2), block).value

    def test_rejects_non_generator_channels(self):
        from repro.rangesum.dmap import DMAP
        from repro.sketch.atomic import DMAPChannel

        grid = SketchScheme.from_factory(
            lambda source: DMAPChannel(DMAP.from_source(6, source)),
            2,
            2,
            SeedSource(3),
        )
        with pytest.raises(TypeError, match="GeneratorChannel"):
            DyadicHierarchy(grid, 6)

    def test_rejects_bad_construction_and_intervals(self):
        with pytest.raises(ValueError):
            _hierarchy(bits=0)
        hierarchy = _hierarchy()
        with pytest.raises(ValueError, match="empty interval"):
            hierarchy.update_interval(9, 3)


class TestHeavyHitterDescent:
    """The paper-facing acceptance: zipf recall within the envelope."""

    @pytest.fixture(scope="class")
    def zipf(self):
        bits = 12
        rng = np.random.default_rng(7)
        draws = rng.zipf(1.3, size=20_000)
        items = draws[draws < (1 << bits)]
        spec = get_spec("eh3")
        scheme = SketchScheme.from_generators(
            lambda source: spec.factory(bits, source),
            5,
            200,
            SeedSource(42),
        )
        hierarchy = DyadicHierarchy(scheme, bits)
        hierarchy.update_points(items.astype(np.uint64))
        counts = np.bincount(items, minlength=1 << bits)
        return hierarchy, counts, items.size

    def test_recovers_every_true_hitter(self, zipf):
        hierarchy, counts, total = zipf
        threshold = 0.01 * total
        true_hitters = {
            int(item) for item in np.flatnonzero(counts >= threshold)
        }
        assert true_hitters  # the workload must actually contain hitters
        envelopes = hierarchy.predicted_envelopes()
        slack = [2.0 * envelope for envelope in envelopes]
        reported = hierarchy.heavy_hitters(threshold, slack=slack)
        reported_items = {hitter.item for hitter in reported}
        assert true_hitters <= reported_items
        # Precision side of the trade: everything reported cleared the
        # lowered leaf bar.
        assert all(
            hitter.estimate >= threshold - slack[0] for hitter in reported
        )

    def test_envelopes_follow_the_paper_formula(self, zipf):
        hierarchy, _, _ = zipf
        envelopes = hierarchy.predicted_envelopes()
        assert len(envelopes) == hierarchy.levels
        for level, envelope in enumerate(envelopes):
            f2 = max(engine.self_join(hierarchy.sketch_at(level)).value, 0.0)
            expected = predicted_relative_error(
                f2, 1.0, hierarchy.scheme.averages
            )
            assert envelope == expected
            assert envelope >= 0.0

    def test_true_hitter_estimates_within_envelope(self, zipf):
        hierarchy, counts, total = zipf
        threshold = 0.01 * total
        true_hitters = np.flatnonzero(counts >= threshold)
        estimates = hierarchy.estimate_blocks(0, true_hitters)
        envelope = hierarchy.predicted_envelopes()[0]
        errors = np.abs(estimates - counts[true_hitters])
        # The envelope is the *expected* absolute error; allow the same
        # 2x excursion budget the descent slack uses.
        assert float(errors.max()) <= 2.0 * envelope

    def test_median_quantile_finds_the_true_median(self, zipf):
        hierarchy, counts, _ = zipf
        cumulative = np.cumsum(counts)
        true_median = int(np.searchsorted(cumulative, cumulative[-1] / 2.0))
        est = hierarchy.quantile(0.5)
        assert est.value == float(true_median)
        assert est.plan.kind == "descent"

    def test_slack_validation(self):
        hierarchy = _hierarchy()
        with pytest.raises(ValueError, match="threshold"):
            hierarchy.heavy_hitters(0.0)
        with pytest.raises(ValueError, match="entries"):
            hierarchy.heavy_hitters(1.0, slack=[0.0, 0.0])
        with pytest.raises(ValueError, match="non-negative"):
            hierarchy.heavy_hitters(1.0, slack=-1.0)

    def test_empty_hierarchy_reports_nothing(self):
        hierarchy = _hierarchy()
        assert hierarchy.heavy_hitters(10.0) == []


# ---------------------------------------------------------------------------
# Processor executors stay bit-identical through the dispatch


class TestStreamProcessorQueries:
    @pytest.fixture()
    def processor(self):
        from repro.stream.processor import StreamProcessor

        processor = StreamProcessor(medians=3, averages=8, seed=99)
        processor.register_relation("r", 8)
        processor.register_relation("s", 8)
        processor.register_hierarchy("r")
        rng = np.random.default_rng(13)
        processor.process_points(
            "r", rng.integers(0, 256, size=300, dtype=np.uint64)
        )
        processor.process_points(
            "s", rng.integers(0, 256, size=300, dtype=np.uint64)
        )
        return processor

    def test_answer_dispatches_through_query(self, processor):
        self_join = processor.register_self_join("r")
        join = processor.register_join("r", "s")
        assert (
            processor.answer(self_join)
            == processor.query(F2Query("r")).value
        )
        assert (
            processor.answer(join)
            == processor.query(JoinSizeQuery("r", "s")).value
        )

    def test_query_values_match_engine_on_live_sketches(self, processor):
        x = processor.sketch_of("r")
        y = processor.sketch_of("s")
        assert processor.query(F2Query("r")).value == _inline_reduce(x, x)
        assert (
            processor.query(JoinSizeQuery("r", "s")).value
            == _inline_reduce(x, y)
        )
        probe = processor.scheme_of("r").sketch()
        probe.update_interval((10, 99))
        assert (
            processor.query(RangeSumQuery("r", 10, 99)).value
            == _inline_reduce(x, probe)
        )

    def test_execute_defers_to_processor(self, processor):
        assert (
            engine.execute(F2Query("r"), processor).value
            == processor.query(F2Query("r")).value
        )

    def test_hierarchy_surfaces_require_registration(self, processor):
        with pytest.raises(ValueError, match="hierarchy"):
            processor.heavy_hitters("s", threshold=1.0)
        hitters = processor.heavy_hitters("r", threshold=5.0)
        assert all(isinstance(h.estimate, float) for h in hitters)
        est = processor.quantile("r", 0.5)
        assert isinstance(est, Estimate)

    def test_unsupported_query_rejected(self, processor):
        with pytest.raises(TypeError):
            processor.query(object())


class TestClusterQueries:
    @pytest.fixture()
    def cluster(self, tmp_path):
        from repro.cluster import ClusterConfig, ClusterProcessor

        with ClusterProcessor(
            str(tmp_path / "cluster"),
            shards=2,
            medians=3,
            averages=8,
            seed=31,
            transport="inline",
            config=ClusterConfig(heartbeat_interval=0.0),
        ) as cluster:
            cluster.register_relation("r", 8)
            cluster.ingest_points("r", list(range(0, 200, 3)))
            yield cluster

    def test_answer_matches_typed_query(self, cluster):
        handle = cluster.register_self_join("r")
        answer = cluster.answer(handle)
        estimate = cluster.query(F2Query("r"))
        assert answer.value == estimate.value
        assert answer.coverage == estimate.coverage
        assert estimate.shards is not None
        assert estimate.shards.total_shards == 2

    def test_point_and_range_queries_return_estimates(self, cluster):
        point = cluster.query(PointQuery("r", 3))
        assert isinstance(point, Estimate)
        assert point.plan.kind == "point"
        span = cluster.query(RangeSumQuery("r", 0, 63))
        assert isinstance(span, Estimate)
        assert span.shards is not None

    def test_hierarchical_queries_rejected(self, cluster):
        with pytest.raises(TypeError):
            cluster.query(HeavyHittersQuery("r", 1.0))
