"""Quickstart: generating schemes, fast range-sums, and AMS sketching.

Walks the paper's pipeline end to end on a small domain:

1. the dyadic-interval hierarchy (paper Figure 1),
2. the +/-1 generating schemes and their seed sizes (Table 1's columns),
3. fast range-summation, including the paper's worked Example 1,
4. a size-of-join estimate from AMS sketches, with interval updates.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    BCH3,
    BCH5,
    EH3,
    RM7,
    SeedSource,
    SketchScheme,
    brute_force_range_sum,
    eh3_range_sum,
    massdal4,
    query,
)
from repro.core.dyadic import render_dyadic_tree
from repro.sketch.estimators import exact_join_size, relative_error


def show_dyadic_intervals() -> None:
    print("Dyadic intervals over {0..15} (paper Figure 1):")
    print(render_dyadic_tree(4))
    print()


def show_generating_schemes() -> None:
    print("Generating schemes over a 2^16 domain (Table 1's seed sizes):")
    source = SeedSource(2006)
    schemes = [
        BCH3.from_source(16, source),
        EH3.from_source(16, source),
        BCH5.from_source(16, source),
        RM7.from_source(16, source),
        massdal4(16, source),
    ]
    indices = np.arange(8, dtype=np.uint64)
    for scheme in schemes:
        name = type(scheme).__name__
        values = [int(v) for v in scheme.values(indices)]
        print(
            f"  {name:22s} {scheme.independence}-wise, "
            f"{scheme.seed_bits:4d} seed bits, xi_0..7 = {values}"
        )
    print()


def show_fast_range_sums() -> None:
    print("Fast range-summation (paper Example 1: S = [0, 184], [124, 197]):")
    generator = EH3(8, 0, 184)
    fast = eh3_range_sum(generator, 124, 197)
    slow = brute_force_range_sum(generator, 124, 197)
    print(f"  H3Interval closed form: {fast}")
    print(f"  brute-force sum:        {slow}")
    print(
        "  (the paper's worked example prints +12: it maps bit 0 to -1;"
        " the flip is global and estimator-invariant)"
    )

    big = EH3.from_source(32, SeedSource(7))
    total = eh3_range_sum(big, 1_000_000, 3_000_000_000)
    print(f"  EH3 sum of 3 BILLION values on a 2^32 domain: {total} (instant)")
    print()


def show_size_of_join() -> None:
    print("Size-of-join estimation with AMS sketches (interval input):")
    source = SeedSource(77)
    scheme = SketchScheme.from_generators(
        lambda src: EH3.from_source(12, src), medians=7, averages=120,
        source=source,
    )

    # Relation R arrives as intervals, S as points.
    r_intervals = [(0, 1500), (1000, 2500), (3000, 4000)]
    s_points = [1200, 1200, 2000, 3500, 4090]

    x = scheme.sketch()
    for bounds in r_intervals:
        x.update_interval(bounds)  # one O(log) fast range-sum each
    y = scheme.sketch()
    for point in s_points:
        y.update_point(point)

    r_freq = np.zeros(1 << 12)
    for a, b in r_intervals:
        r_freq[a : b + 1] += 1
    s_freq = np.zeros(1 << 12)
    for point in s_points:
        s_freq[point] += 1
    truth = exact_join_size(r_freq, s_freq)

    estimate = query.product(x, y).value
    print(f"  true |R join S|      = {truth:.0f}")
    print(f"  sketch estimate      = {estimate:.2f}")
    print(f"  relative error       = {relative_error(estimate, truth):.3f}")
    print(f"  sketch memory        = {scheme.counters} counters")


if __name__ == "__main__":
    show_dyadic_intervals()
    show_generating_schemes()
    show_fast_range_sums()
    show_size_of_join()
