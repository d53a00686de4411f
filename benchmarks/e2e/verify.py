"""Output checks: every answer and every counter against a reference.

Each check returns a list of failure descriptions (empty when it
passes).  The references share no code with the fast paths they check:

* **Counter cells.**  A counter is ``X = sum_i f_i * xi(i)`` over the
  relation's frequency vector ``f``.  The workload keeps ``f`` exactly
  (integer weights), so one sampled cell per row is rebuilt by an
  :class:`~repro.sketch.atomic.AtomicSketch` on that cell's own channel,
  fed ``f`` point by point.  Every term is an integer far below 2^53, so
  the float64 sums are exact and equality is exact.
* **Scalar answers.**  ``median(mean(data * probe, axis=1))`` with the
  probe built per cell from the channel's scalar ``range_sum`` / point
  value -- not from the packed plane the engine uses.
* **Recovery.**  Counters after ``StreamProcessor.recover`` must be
  bit-identical (same bytes) to the live counters.
* **Program counters.**  Degradations, scalar fallbacks and quarantined
  records must be zero: a fallback must not hide a fast-path bug.

``repro`` is imported inside the functions, so importing this module
does not start the timed set-up of a workload process.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

#: Program counters that must not move during a run.
ZERO_COUNTERS = (
    "stream.degrade.incidents_total",
    "sketch.bulk.fallback_total",
    "stream.ingest.quarantined_total",
)

#: Every ``CHECK_EVERY``-th scalar query answer is checked.
CHECK_EVERY = 50


def cell_sample(
    seed: int, medians: int, averages: int
) -> list[tuple[int, int]]:
    """The checked cells: one seeded column per row."""
    rng = np.random.default_rng([seed, 0xCE11])
    return [(row, int(rng.integers(averages))) for row in range(medians)]


def check_cells(
    label: str,
    values: np.ndarray,
    channels: Sequence[Sequence[Any]],
    frequencies: np.ndarray,
    sample: Sequence[tuple[int, int]],
) -> list[str]:
    """Compare sampled counters with per-cell channel references."""
    from repro.sketch.atomic import AtomicSketch

    support = np.flatnonzero(frequencies).astype(np.uint64)
    weights = frequencies[support].astype(np.float64)
    failures = []
    for row, column in sample:
        reference = AtomicSketch(channels[row][column])
        if support.size:
            reference.update_points(support, weights)
        live = float(values[row, column])
        if reference.value != live:
            failures.append(
                f"{label} cell ({row}, {column}): counter {live!r} != "
                f"reference {reference.value!r}"
            )
    return failures


def level_frequencies(frequencies: np.ndarray, level: int) -> np.ndarray:
    """Frequencies of the level-``level`` blocks ``item >> level``."""
    return frequencies.reshape(-1, 1 << level).sum(axis=1)


def reference_answer(
    kind: str,
    values: np.ndarray,
    channels: Sequence[Sequence[Any]],
    args: tuple[Any, ...] = (),
    other: np.ndarray | None = None,
) -> float:
    """The median-of-means answer recomputed from scalar channel sums."""
    if kind == "range_sum":
        low, high = args
        probe = np.array(
            [[channel.interval((low, high)) for channel in row] for row in channels],
            dtype=np.float64,
        )
    elif kind == "point":
        (item,) = args
        probe = np.array(
            [[channel.point(item) for channel in row] for row in channels],
            dtype=np.float64,
        )
    elif kind == "f2":
        probe = values
    elif kind == "join":
        assert other is not None
        probe = other
    else:
        raise ValueError(f"no reference for query kind {kind!r}")
    return float(np.median(np.mean(values * probe, axis=1)))


def check_recovery(
    label: str, live: np.ndarray, recovered: np.ndarray
) -> list[str]:
    """Recovered counters must carry the live counters' exact bytes."""
    if live.shape == recovered.shape and live.tobytes() == recovered.tobytes():
        return []
    differing = int(np.count_nonzero(live != recovered)) if (
        live.shape == recovered.shape
    ) else live.size
    return [f"{label}: {differing} recovered counters differ from live"]


def check_counters(before: dict[str, Any], after: dict[str, Any]) -> list[str]:
    """The zero-tolerance program counters did not move."""
    failures = []
    for name in ZERO_COUNTERS:
        moved = _counter(after, name) - _counter(before, name)
        if moved:
            failures.append(f"program counter {name} moved by {moved:g}")
    return failures


def _counter(snapshot: dict[str, Any], name: str) -> float:
    return float(snapshot.get(name, {}).get("value", 0.0))
