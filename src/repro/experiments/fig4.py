"""Figure 4 -- EH3 vs DMAP for selectivity estimation across data skew.

Paper setup: two-dimensional synthetic data (generator of Dobra et al.
[8]): 10 regions over a 1024 x 1024 domain, point counts and within-region
distributions Zipf distributed; the within-region Zipf coefficient is swept.
Both methods answer random rectangular count queries from sketches of equal
memory.

Expected shape: EH3 beats DMAP across the sweep -- by an order of magnitude
(the paper reports up to 14x) at low skew, with the gap narrowing but not
closing as skew grows.
"""

from __future__ import annotations

import numpy as np

from repro.apps.histograms import random_query_rects
from repro.experiments.runner import ExperimentResult
from repro.generators import SeedSource
from repro.rangesum.multidim import ProductDMAP, ProductGenerator
from repro.schemes import channel_kind
from repro.query import engine as query_engine
from repro.sketch.ams import SketchMatrix, SketchScheme
from repro.sketch.atomic import ProductChannel, ProductDMAPChannel
from repro.sketch.bulk import (
    product_bulk_point_update,
    product_dmap_bulk_point_update,
)
from repro.stream.exact import region_frequency_sum
from repro.workloads.regions import generate_region_dataset

__all__ = ["run_fig4", "selectivity_errors"]


def _eh3_scheme(
    dims_bits, medians: int, averages: int, source: SeedSource
) -> SketchScheme:
    return SketchScheme.from_factory(
        lambda src: ProductChannel(ProductGenerator.eh3(dims_bits, src)),
        medians,
        averages,
        source,
    )


def _dmap_scheme(
    dims_bits, medians: int, averages: int, source: SeedSource
) -> SketchScheme:
    return SketchScheme.from_factory(
        lambda src: ProductDMAPChannel(ProductDMAP.from_source(dims_bits, src)),
        medians,
        averages,
        source,
    )


def _region_sketches(scheme: SketchScheme, rects) -> list:
    """One region sketch per query rectangle, batched per cell.

    Each cell computes its contributions to *all* rectangles in one
    batched per-axis range-sum pass (:meth:`ProductGenerator.rect_sums` /
    :meth:`ProductDMAP.rect_contributions`) instead of decomposing every
    rectangle once per cell.
    """

    def rect_totals(channel):
        if channel_kind(channel) == "product":
            return channel.generator.rect_sums(rects)
        return channel.dmap.rect_contributions(rects)

    grids = np.array(
        [[rect_totals(channel) for channel in row] for row in scheme.channels],
        dtype=np.float64,
    )
    return [
        SketchMatrix.from_values(scheme, grids[:, :, k]) for k in range(len(rects))
    ]


def selectivity_errors(
    points: np.ndarray,
    rects,
    scheme: SketchScheme,
    bulk_update,
) -> float:
    """Mean relative count error of one sketch over the query rectangles."""
    data_sketch = scheme.sketch()
    bulk_update(data_sketch, points)
    errors = []
    region_sketches = _region_sketches(scheme, rects)
    for rect, region_sketch in zip(rects, region_sketches):
        truth = region_frequency_sum(points, rect)
        if truth == 0:
            continue
        estimate = query_engine.product(
            data_sketch, region_sketch, kind="region"
        ).value
        errors.append(abs(estimate - truth) / truth)
    if not errors:
        raise ValueError("no query rectangle contained any data")
    return float(np.mean(errors))


def run_fig4(
    dims_bits: tuple[int, int] = (10, 10),
    regions: int = 10,
    total_points: int = 20_000,
    zipf_values: tuple[float, ...] = (0.0, 0.5, 1.0, 1.5, 2.0),
    medians: int = 7,
    averages: int = 100,
    queries: int = 20,
    trials: int = 3,
    seed: int = 20060627,
) -> ExperimentResult:
    """EH3 vs DMAP mean selectivity error as within-region skew grows."""
    source = SeedSource(seed)
    rng = np.random.default_rng(seed)

    result = ExperimentResult(
        title="Figure 4: EH3 vs DMAP selectivity estimation vs Zipf skew",
        headers=["Zipf z", "EH3 error", "DMAP error", "DMAP / EH3"],
    )
    for z in zipf_values:
        dataset = generate_region_dataset(
            domain_bits=dims_bits,
            regions=regions,
            total_points=total_points,
            within_zipf=z,
            rng=rng,
        )
        rects = [
            rect
            for rect in random_query_rects(rng, dims_bits, queries * 4)
            if region_frequency_sum(dataset.points, rect)
            >= max(1, total_points // 200)
        ][:queries]
        eh3_errors = []
        dmap_errors = []
        for _ in range(trials):
            eh3_errors.append(
                selectivity_errors(
                    dataset.points,
                    rects,
                    _eh3_scheme(dims_bits, medians, averages, source),
                    product_bulk_point_update,
                )
            )
            dmap_errors.append(
                selectivity_errors(
                    dataset.points,
                    rects,
                    _dmap_scheme(dims_bits, medians, averages, source),
                    product_dmap_bulk_point_update,
                )
            )
        eh3_error = float(np.mean(eh3_errors))
        dmap_error = float(np.mean(dmap_errors))
        ratio = dmap_error / eh3_error if eh3_error > 0 else float("inf")
        result.add_row(z, eh3_error, dmap_error, ratio)
    result.add_note(
        f"{regions} regions, {total_points:,} points over "
        f"{1 << dims_bits[0]}x{1 << dims_bits[1]}, {medians}x{averages} "
        f"counters per method, {len(zipf_values)} skew levels, "
        f"{trials} trials, queries covering >= 0.5% of the data"
    )
    return result
