"""Ground truth and sketch builders for estimation experiments.

These helpers wire workload data (frequency vectors, tuple streams,
interval streams) through :class:`repro.sketch.ams.SketchScheme` grids,
and compute the exact quantities the paper's estimates are judged
against: size of join, self-join size (the second frequency moment F2),
and relative estimation errors.  The estimates themselves come from
:mod:`repro.query` (``join_size``, ``self_join``, ``product``).
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

import numpy as np

from repro.sketch.ams import SketchMatrix, SketchScheme

__all__ = [
    "exact_join_size",
    "exact_self_join",
    "sketch_frequency_vector",
    "sketch_points",
    "sketch_intervals",
    "relative_error",
]


def exact_join_size(
    r: Sequence[float] | np.ndarray, s: Sequence[float] | np.ndarray
) -> float:
    """Ground truth ``|R join S| = sum_i r_i s_i`` from frequency vectors."""
    r = np.asarray(r, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    if r.shape != s.shape:
        raise ValueError("frequency vectors must share a domain")
    return float(np.dot(r, s))


def exact_self_join(r: Sequence[float] | np.ndarray) -> float:
    """Ground truth self-join size ``F2 = sum_i r_i^2``."""
    r = np.asarray(r, dtype=np.float64)
    return float(np.dot(r, r))


def sketch_frequency_vector(
    scheme: SketchScheme, frequencies: Sequence[float] | np.ndarray
) -> SketchMatrix:
    """Sketch a relation given directly as a 1-D frequency vector."""
    sketch = scheme.sketch()
    sketch.update_frequency_vector(np.asarray(frequencies, dtype=np.float64))
    return sketch


def sketch_points(scheme: SketchScheme, points: Iterable[Any]) -> SketchMatrix:
    """Sketch a relation streamed point by point."""
    sketch = scheme.sketch()
    for point in points:
        sketch.update_point(point)
    return sketch


def sketch_intervals(
    scheme: SketchScheme, intervals: Iterable[Sequence[Any]]
) -> SketchMatrix:
    """Sketch a relation streamed as intervals/rectangles.

    Each element of ``intervals`` is the ``bounds`` accepted by the
    scheme's channels: an inclusive ``(low, high)`` pair in one dimension,
    a sequence of per-axis pairs for rectangles.
    """
    sketch = scheme.sketch()
    for bounds in intervals:
        sketch.update_interval(bounds)
    return sketch


def relative_error(estimate: float, truth: float) -> float:
    """``|estimate - truth| / truth`` (truth must be nonzero)."""
    if truth == 0:
        raise ValueError("relative error undefined for zero ground truth")
    return abs(estimate - truth) / abs(truth)
