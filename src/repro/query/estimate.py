"""The one median-of-means reduction and its error accounting.

Historically every estimate path re-implemented the reduction inline
(``sketch/ams.py``, ``sketch/estimators.py``, ``sketch/multijoin.py``,
the apps, both processors), which left room for them to drift -- most
visibly on how an even number of median rows is resolved.  This module
is now the single definition: :func:`median_of_means` averages within
rows and takes :func:`numpy.median` across rows, so an **even** row
count resolves to the arithmetic mean of the two central row means
(linear interpolation), never a one-sided pick.  Every other module
delegates here.

Confidence accounting lives here too: :func:`empirical_sigma` (the
spread of the row means, the data-driven band reported in
:class:`repro.query.types.Estimate`) and
:func:`predicted_relative_error` (the model-driven proxy from the
paper's variance formulas, re-exported by ``sketch/variance.py`` for
backward compatibility).

Only numpy is imported -- ``sketch/ams.py`` calls back into this module,
so it must not import the sketch layer.
"""

from __future__ import annotations

import math

import numpy as np

from repro.query.types import Estimate, PlanStats

__all__ = [
    "median_of_means",
    "row_means",
    "empirical_sigma",
    "estimate_from_products",
    "predicted_relative_error",
]

# PlanStats is frozen, so unplanned estimates can all share one instance.
_NONE_PLAN = PlanStats("none")


def row_means(products: np.ndarray) -> np.ndarray:
    """Per-row means of a ``(medians, averages)`` product grid."""
    products = np.asarray(products, dtype=np.float64)
    if products.ndim != 2:
        raise ValueError("expected a (medians, averages) product grid")
    return products.mean(axis=1)


def _median_of_sorted(ordered: np.ndarray) -> float:
    """Median of an ascending 1-D array by direct order statistics.

    Bit-identical to ``np.median`` for finite inputs: the odd case
    returns the middle element exactly, the even case averages the two
    central elements (``(a + b) / 2`` is exact IEEE, the same value
    ``np.median`` produces) -- without ``np.median``'s interpreter-level
    dispatch, which dominates on the small ``medians``-sized arrays this
    reduction runs on.
    """
    count = ordered.shape[0]
    middle = count >> 1
    if count & 1:
        return float(ordered[middle])
    return float((ordered[middle - 1] + ordered[middle]) / 2.0)


def median_of_means(products: np.ndarray) -> float:
    """Median across rows of the within-row means -- THE estimator.

    Bit-identical to the historical inline
    ``float(np.median(products.mean(axis=1)))``: with an odd number of
    rows the middle row mean is returned exactly; with an even number
    the two central row means are averaged (numpy median semantics).
    """
    return _median_of_sorted(np.sort(row_means(products)))


def _sigma_of_means(means: np.ndarray) -> float:
    """Population standard deviation of a 1-D float64 array.

    The explicit centered form (subtract the mean, average the squares,
    square-root) -- the definition of ``empirical_sigma``, kept as raw
    ufunc reductions so the hot engine path skips ``ndarray.std``'s
    dispatch.
    """
    count = means.shape[0]
    centered = means - np.add.reduce(means) / count
    return math.sqrt(np.add.reduce(centered * centered) / count)


def empirical_sigma(products: np.ndarray) -> float:
    """Spread of the row means -- the data-driven confidence half-width.

    The population standard deviation of the per-row means.  Each row
    mean is an independent unbiased estimate of the same quantity, so
    their spread is an honest (if coarse, for small ``medians``) proxy
    for the estimator's standard error.
    """
    return _sigma_of_means(row_means(products))


def estimate_from_products(
    products: np.ndarray,
    *,
    plan: PlanStats | None = None,
    coverage: float = 1.0,
    degraded: bool = False,
    error_width_factor: float = 1.0,
) -> Estimate:
    """Reduce a product grid to a full :class:`Estimate`.

    ``value`` comes from :func:`median_of_means`; the confidence band is
    ``value +/- error_width_factor * empirical_sigma`` (the factor is
    ``1 / coverage`` for degraded cluster answers).
    """
    products = np.asarray(products, dtype=np.float64)
    if products.ndim != 2:
        raise ValueError("expected a (medians, averages) product grid")
    # One pass over the grid: value and band both reduce the same row
    # means, bit-identical to median_of_means / empirical_sigma
    # (ndarray.mean IS np.add.reduce followed by a true-divide; the raw
    # form skips its per-call dispatch on these tiny arrays).
    means = np.add.reduce(products, axis=1) / products.shape[1]
    value = _median_of_sorted(np.sort(means))
    half = error_width_factor * _sigma_of_means(means)
    return Estimate(
        value=value,
        ci_low=value - half,
        ci_high=value + half,
        coverage=coverage,
        plan=plan if plan is not None else _NONE_PLAN,
        medians=int(products.shape[0]),
        averages=int(products.shape[1]),
        degraded=degraded,
        error_width_factor=error_width_factor,
    )


def predicted_relative_error(
    variance: float, expectation: float, averages: int, absolute: bool = True
) -> float:
    """Predicted relative error of an ``averages``-wide AMS estimate.

    The averaged estimator has standard deviation ``sqrt(Var / averages)``;
    relative to ``E[X]`` this is the paper's error proxy.  With
    ``absolute=True`` the expected *absolute* error of a (near-normal)
    estimator, ``sqrt(2 / pi) * sigma``, is reported instead of one sigma.
    """
    if averages <= 0:
        raise ValueError("averages must be positive")
    if expectation == 0:
        raise ValueError("relative error undefined for zero expectation")
    variance = max(variance, 0.0)
    sigma = np.sqrt(variance / averages)
    scale = np.sqrt(2.0 / np.pi) if absolute else 1.0
    return float(scale * sigma / abs(expectation))
