"""End-to-end integration tests crossing all library layers."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    BCH3,
    EH3,
    SeedSource,
    SketchScheme,
    query,
    relative_error,
)
from repro.rangesum.dmap import DMAP
from repro.sketch.atomic import DMAPChannel, GeneratorChannel
from repro.sketch.estimators import (
    exact_join_size,
    sketch_frequency_vector,
)
from repro.stream.streams import IntervalStream, PointStream, frequency_vector
from repro.workloads.zipf import sample_zipf_counts


class TestStreamingPipeline:
    def test_interval_stream_vs_expanded_points(self, source: SeedSource):
        """The same relation streamed as intervals and as points gives the
        SAME sketch (not merely close) for a fast range-summable scheme."""
        scheme = SketchScheme.from_generators(
            lambda src: EH3.from_source(10, src), 3, 5, source
        )
        intervals = IntervalStream(10)
        intervals.append(5, 200)
        intervals.append(100, 100)
        intervals.append(700, 1023)

        points = PointStream(10)
        for update in intervals:
            for i in range(update.low, update.high + 1):
                points.append(i)

        interval_sketch = scheme.sketch()
        for update in intervals:
            interval_sketch.update_interval((update.low, update.high))
        point_sketch = scheme.sketch()
        for update in points:
            point_sketch.update_point(update.item)
        assert np.allclose(interval_sketch.values(), point_sketch.values())

    def test_distributed_merge_equals_centralized(self, source: SeedSource):
        """Sketch halves separately, add -- the distributed story of §2.1."""
        scheme = SketchScheme.from_generators(
            lambda src: BCH3.from_source(8, src), 2, 4, source
        )
        rng = np.random.default_rng(1)
        data = rng.integers(0, 256, size=500)
        site_a = scheme.sketch()
        site_b = scheme.sketch()
        central = scheme.sketch()
        for k, item in enumerate(data):
            (site_a if k % 2 else site_b).update_point(int(item))
            central.update_point(int(item))
        merged = site_a.combined(site_b)
        assert np.allclose(merged.values(), central.values())

    def test_zipf_join_accuracy_eh3(self, source: SeedSource):
        """Size-of-join over sampled low-skew Zipf data lands near truth.

        At z = 0.4 the Eq. 12 model predicts a one-row relative error of
        about 0.08 with 200 averages; 0.3 is a ~4-sigma bound.
        """
        rng = np.random.default_rng(5)
        domain_bits = 10
        r = sample_zipf_counts(1 << domain_bits, 20_000, 0.4, rng)
        s = sample_zipf_counts(1 << domain_bits, 20_000, 0.4, rng)
        truth = exact_join_size(r, s)
        scheme = SketchScheme.from_generators(
            lambda src: EH3.from_source(domain_bits, src), 7, 200, source
        )
        x = sketch_frequency_vector(scheme, r)
        y = sketch_frequency_vector(scheme, s)
        assert relative_error(query.join_size(x, y).value, truth) < 0.3

    def test_eh3_and_dmap_estimate_same_quantity(self, source: SeedSource):
        """Both methods target the identical interval-point join."""
        domain_bits = 8
        intervals = [(10, 120), (50, 200), (0, 255)]
        points = [60, 130, 250, 60]
        truth = sum(
            1 for (a, b) in intervals for p in points if a <= p <= b
        )

        eh3_scheme = SketchScheme.from_factory(
            lambda src: GeneratorChannel(EH3.from_source(domain_bits, src)),
            5,
            400,
            source,
        )
        dmap_scheme = SketchScheme.from_factory(
            lambda src: DMAPChannel(DMAP.from_source(domain_bits, src)),
            5,
            400,
            source,
        )
        for scheme in (eh3_scheme, dmap_scheme):
            x = scheme.sketch()
            for bounds in intervals:
                x.update_interval(bounds)
            y = scheme.sketch()
            for p in points:
                y.update_point(p)
            estimate = query.product(x, y).value
            assert estimate == pytest.approx(truth, rel=0.6)

    def test_frequency_vector_reconstruction_consistency(self):
        """Stream -> frequency vector -> exact join equals direct count."""
        stream_r = IntervalStream(6)
        stream_r.append(0, 31)
        stream_r.append(16, 47)
        stream_s = PointStream(6)
        for p in (5, 20, 40, 40, 60):
            stream_s.append(p)
        r = frequency_vector(stream_r)
        s = frequency_vector(stream_s)
        # point 5 covered once, 20 twice, each 40 twice... count directly:
        expected = 1 + 2 + 2 * 1 + 0
        assert exact_join_size(r, s) == expected


class TestAdditionalScenarios:
    def test_interval_interval_join_overlap_mass(self, source: SeedSource):
        """Both relations interval-built: the join is the overlap mass."""
        scheme = SketchScheme.from_generators(
            lambda src: EH3.from_source(10, src), 7, 400, source
        )
        r_intervals = [(0, 499), (250, 749)]
        s_intervals = [(400, 899)]
        x = scheme.sketch()
        for bounds in r_intervals:
            x.update_interval(bounds)
        y = scheme.sketch()
        for bounds in s_intervals:
            y.update_interval(bounds)
        # Exact: sum over i of cov_R(i) * cov_S(i).
        cov_r = np.zeros(1 << 10)
        for a, b in r_intervals:
            cov_r[a : b + 1] += 1
        cov_s = np.zeros(1 << 10)
        for a, b in s_intervals:
            cov_s[a : b + 1] += 1
        truth = float(np.dot(cov_r, cov_s))
        estimate = query.product(x, y).value
        assert estimate == pytest.approx(truth, rel=0.5)

    def test_turnstile_deletions(self, source: SeedSource):
        """Negative-weight updates model deletions exactly (linearity)."""
        scheme = SketchScheme.from_generators(
            lambda src: EH3.from_source(8, src), 3, 5, source
        )
        with_churn = scheme.sketch()
        for item in (5, 9, 9, 200):
            with_churn.update_point(item)
        with_churn.update_point(9, weight=-1.0)  # delete one copy of 9
        with_churn.update_interval((100, 150))
        with_churn.update_interval((100, 150), weight=-1.0)  # retract it

        clean = scheme.sketch()
        for item in (5, 9, 200):
            clean.update_point(item)
        assert np.allclose(with_churn.values(), clean.values())
