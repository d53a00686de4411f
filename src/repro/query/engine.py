"""Executors: run typed queries against sketches and processors.

The engine owns the only call sites of the raw product machinery --
every estimate in the package funnels through :func:`product`, which
reduces the per-cell product grid with
:func:`repro.query.estimate.median_of_means` and wraps the answer in an
:class:`repro.query.types.Estimate`.

Range queries are planned once (:func:`repro.query.plan.plan_for_scheme`)
and the plan's piece arrays are fed straight into the scheme's packed
kernel.  A probe is a plain ``(medians, averages)`` totals array, not a
sketch -- bit-identical to a probe sketch fed
``SketchMatrix.update_interval``, which dispatches through the very same
cover construction -- and the estimate multiplies it with the data
counters.

:func:`execute` is the typed entry point.  Local execution resolves
relation names through a mapping of sketches; :class:`StreamProcessor`
and :class:`ClusterProcessor` expose ``.query()`` methods (their
executors) which ``execute`` defers to, so coverage/staleness semantics
stay with the layer that owns them.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from repro import obs
from repro.query.estimate import estimate_from_products
from repro.query.plan import LevelPlan, plan_for_scheme
from repro.query.types import (
    Estimate,
    F2Query,
    HeavyHittersQuery,
    JoinSizeQuery,
    PlanStats,
    PointQuery,
    Query,
    QuantileQuery,
    RangeSumQuery,
)
from repro.sketch.ams import SketchMatrix, SketchScheme

__all__ = [
    "product",
    "product_of_values",
    "join_size",
    "self_join",
    "point",
    "range_sum",
    "probe_for_plan",
    "point_probe",
    "execute",
]

_KIND_COUNTERS: dict[str, str] = {}
_KIND_SPANS: dict[str, str] = {}


def _kind_counter(kind: str) -> str:
    """Cached ``query.execute.<kind>_total`` counter name."""
    name = _KIND_COUNTERS.get(kind)
    if name is None:
        name = _KIND_COUNTERS[kind] = f"query.execute.{kind}_total"
    return name


def _kind_span(kind: str) -> str:
    """Cached ``query.execute.<kind>`` span name.

    The nested per-kind span gives each query kind its own
    ``query.execute.<kind>.seconds`` latency histogram -- the series the
    SLO engine's p50/p99 latency objectives read.
    """
    name = _KIND_SPANS.get(kind)
    if name is None:
        name = _KIND_SPANS[kind] = f"query.execute.{kind}"
    return name


def product_of_values(
    arrays: Sequence[np.ndarray],
    *,
    kind: str = "product",
    plan: PlanStats | None = None,
    coverage: float = 1.0,
    degraded: bool = False,
    error_width_factor: float = 1.0,
) -> Estimate:
    """Estimate from already-materialized counter grids.

    Multiplies the grids cell-wise in order (the k-way generalization
    behind multi-way joins) and reduces with the shared median-of-means.
    """
    if not arrays:
        raise ValueError("need at least one counter grid")
    obs.counter("query.execute.total").inc()
    obs.counter(_kind_counter(kind)).inc()
    with obs.span("query.execute", kind=kind), obs.span(_kind_span(kind)):
        products = np.ones_like(np.asarray(arrays[0], dtype=np.float64))
        for values in arrays:
            products = products * values
        return estimate_from_products(
            products,
            plan=plan,
            coverage=coverage,
            degraded=degraded,
            error_width_factor=error_width_factor,
        )


def product(
    x: SketchMatrix,
    y: SketchMatrix,
    *,
    kind: str = "product",
    plan: PlanStats | None = None,
    coverage: float = 1.0,
    degraded: bool = False,
    error_width_factor: float = 1.0,
) -> Estimate:
    """Median-of-means estimate of ``sum_i r_i s_i`` from two sketches.

    ``x`` and ``y`` must be built under the same scheme (same seeds); the
    per-cell products are unbiased inner-product estimates, averaged
    within rows and median-ed across rows.
    """
    if x.scheme is not y.scheme:
        raise ValueError("sketches must share a scheme to be multiplied")
    return product_of_values(
        [x.values(), y.values()],
        kind=kind,
        plan=plan,
        coverage=coverage,
        degraded=degraded,
        error_width_factor=error_width_factor,
    )


def join_size(x: SketchMatrix, y: SketchMatrix) -> Estimate:
    """``|R join S|`` between two sketches under shared seeds."""
    return product(x, y, kind="join_size")


def self_join(x: SketchMatrix) -> Estimate:
    """Self-join size (F2): the sketch multiplied with itself.

    Note the classical caveat: squaring the same counters makes each
    cell estimate ``F2`` with a small positive bias relative to
    independent sketches, but it is the estimator the paper's
    experiments use.
    """
    return product(x, x, kind="f2")


def _fresh_probe(totals: np.ndarray, weight: float = 1.0) -> np.ndarray:
    """A zero sketch's counters plus one ``weight * totals`` commit."""
    return 0.0 + weight * totals


def point_probe(scheme: SketchScheme, item: Any) -> np.ndarray:
    """The ``(medians, averages)`` probe counters of one unit point."""
    return _fresh_probe(scheme.point_totals(item))


def probe_for_plan(
    scheme: SketchScheme, plan: LevelPlan, weight: float = 1.0
) -> np.ndarray:
    """A plan's ``(medians, averages)`` probe counters, from its piece arrays.

    For planned kinds the cover computed by the planner is handed to the
    packed kernel directly (no re-decomposition); the result is
    bit-identical to a probe sketch fed ``update_interval`` on the same
    bounds, which builds the identical cover internally.  ``scalar``
    plans fall back to the channels' own range-sum machinery.
    """
    plane = scheme.plane()
    if plan.kind == "scalar" or plane is None:
        return _fresh_probe(scheme.interval_totals((plan.alpha, plan.beta)), weight)
    totals = plan.totals(plane)
    return _fresh_probe(totals.reshape(scheme.medians, scheme.averages), weight)


def point(data: SketchMatrix, item: Any) -> Estimate:
    """Estimated frequency of ``item`` in the sketched relation."""
    return product_of_values(
        [data.values(), point_probe(data.scheme, item)],
        kind="point",
        plan=PlanStats(kind="point", pieces=1, max_level=0),
    )


def range_sum(data: SketchMatrix, low: Any, high: Any) -> Estimate:
    """Estimated total frequency over the inclusive ``[low, high]``."""
    plan = plan_for_scheme(data.scheme, low, high)
    probe = probe_for_plan(data.scheme, plan)
    return product_of_values(
        [data.values(), probe], kind="range_sum", plan=plan.stats()
    )


def execute(query: Query, target: Any) -> Any:
    """Run a typed query against a target and return its answer.

    ``target`` is either an object exposing its own ``query`` executor
    (:class:`StreamProcessor`, :class:`ClusterProcessor` -- coverage and
    staleness semantics stay theirs) or a mapping of relation name to
    :class:`SketchMatrix` for local execution.  Scalar queries yield an
    :class:`Estimate`; ``HeavyHittersQuery`` yields a list of
    :class:`repro.query.types.HeavyHitter`.
    """
    if not isinstance(target, Mapping) and hasattr(target, "query"):
        return target.query(query)
    if not isinstance(target, Mapping):
        raise TypeError(
            "target must be a processor with a .query executor or a "
            "mapping of relation name -> SketchMatrix"
        )
    if isinstance(query, PointQuery):
        return point(target[query.relation], query.item)
    if isinstance(query, RangeSumQuery):
        return range_sum(target[query.relation], query.low, query.high)
    if isinstance(query, F2Query):
        return self_join(target[query.relation])
    if isinstance(query, JoinSizeQuery):
        return product(target[query.left], target[query.right], kind="join_size")
    if isinstance(query, (HeavyHittersQuery, QuantileQuery)):
        raise TypeError(
            "hierarchical queries need a StreamProcessor with a "
            "registered hierarchy (StreamProcessor.register_hierarchy)"
        )
    raise TypeError(f"unsupported query type {type(query).__name__}")
