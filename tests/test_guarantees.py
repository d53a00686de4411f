"""End-to-end (epsilon, delta) guarantee tests for the AMS machinery.

Section 2.1's promise: medians-of-averages turn the atomic estimator into
an (epsilon, delta) approximation.  These tests size a grid with
``recommended_grid`` and verify the empirical coverage actually clears
the promised confidence.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import query
from repro.generators import EH3, SeedSource
from repro.sketch.ams import SketchScheme, recommended_grid
from repro.sketch.estimators import (
    exact_join_size,
    sketch_frequency_vector,
)
from repro.sketch.variance import var_eh3_model


class TestGuaranteeCoverage:
    def test_planned_grid_meets_epsilon_delta(self):
        """>= 1 - delta of independent runs land within epsilon."""
        domain_bits = 10
        rng = np.random.default_rng(17)
        r = rng.integers(0, 6, size=1 << domain_bits).astype(float)
        s = rng.integers(0, 6, size=1 << domain_bits).astype(float)
        truth = exact_join_size(r, s)

        epsilon, delta = 0.15, 0.15
        variance_ratio = var_eh3_model(r, s, domain_bits // 2) / truth**2
        medians, averages = recommended_grid(epsilon, delta, variance_ratio)

        source = SeedSource(99)
        trials = 30
        hits = 0
        for _ in range(trials):
            scheme = SketchScheme.from_generators(
                lambda src: EH3.from_source(domain_bits, src),
                medians,
                averages,
                source,
            )
            x = sketch_frequency_vector(scheme, r)
            y = sketch_frequency_vector(scheme, s)
            estimate = query.join_size(x, y).value
            if abs(estimate - truth) <= epsilon * truth:
                hits += 1
        # Expect >= (1 - delta); allow binomial wiggle on 30 trials.
        assert hits >= int((1 - delta) * trials) - 3

    def test_variance_ratio_drives_grid_width(self):
        tight = recommended_grid(0.1, 0.1, variance_ratio=1.0)
        loose = recommended_grid(0.1, 0.1, variance_ratio=10.0)
        assert loose[1] == pytest.approx(10 * tight[1], rel=0.01)
