"""repro: Fast Range-Summable Random Variables for Efficient Aggregate Estimation.

A from-scratch Python reproduction of Rusu & Dobra, SIGMOD 2006.  The
package implements every +/-1 generating scheme the paper studies (BCH3,
EH3, BCH5, RM7, polynomials over primes, Toeplitz), the fast
range-summation algorithms (BCH3 in O(1), EH3's Theorem 2 / Algorithm
H3Interval, RM7 via 2XOR-AND quadratic counting), AMS sketching with
median-of-averages estimation, the DMAP baseline of Das et al., the
variance theory of Section 5, and the three interval-input applications:
spatial joins, L1-difference, and selectivity estimation.

Quickstart::

    from repro import EH3, SeedSource, SketchScheme
    from repro.query import product

    source = SeedSource(7)
    scheme = SketchScheme.from_generators(
        lambda src: EH3.from_source(20, src), medians=7, averages=50, source=source
    )
    x = scheme.sketch()
    x.update_interval((1000, 250_000))   # sketch a whole interval, O(log) time
    y = scheme.sketch()
    y.update_point(1234)
    print(product(x, y).value)           # ~1.0: the point lies in the interval
"""

from repro.generators import (
    BCH3,
    BCH5,
    EH3,
    RM7,
    Generator,
    PolynomialsOverPrimes,
    SeedSource,
    Toeplitz,
    massdal2,
    massdal4,
)
from repro.rangesum import (
    DMAP,
    ProductDMAP,
    ProductGenerator,
    bch3_range_sum,
    brute_force_range_sum,
    eh3_range_sum,
    h3_interval,
    rm7_range_sum,
)
from repro.sketch import (
    SketchMatrix,
    SketchScheme,
    exact_join_size,
    relative_error,
)

__version__ = "1.0.0"

__all__ = [
    "BCH3",
    "BCH5",
    "EH3",
    "RM7",
    "Generator",
    "PolynomialsOverPrimes",
    "SeedSource",
    "Toeplitz",
    "massdal2",
    "massdal4",
    "DMAP",
    "ProductDMAP",
    "ProductGenerator",
    "bch3_range_sum",
    "brute_force_range_sum",
    "eh3_range_sum",
    "h3_interval",
    "rm7_range_sum",
    "SketchMatrix",
    "SketchScheme",
    "exact_join_size",
    "relative_error",
    "__version__",
]
