"""Level plans: the dyadic/quaternary cover computed once per query.

A :class:`LevelPlan` is the resolved decomposition of one inclusive
interval ``[alpha, beta]`` into dyadic pieces, in the shape the target
scheme's kernel consumes.  The planner dispatches on the scheme's
declared ``interval_kind`` (via its packed plane):

``quaternary``
    EH3's Theorem-2 shape: even binary levels only
    (:func:`repro.core.dyadic.quaternary_cover_arrays`).
``binary``
    plain minimal dyadic cover
    (:func:`repro.core.dyadic.dyadic_cover_arrays`).
``endpoints``
    the kernel consumes raw ``(alpha, beta)`` pairs (RM7, polyprime);
    the plan is the single piece.
``scalar``
    no packed kernel, or guards tripped (negative / >= 2^63 / non-integer
    end-points): execution falls back to the channels' own scalar
    ``range_sum`` machinery, which re-derives its cover internally.

A cover is one grid pass of the batched cover functions, kept as the
arrays it returns.  :meth:`LevelPlan.totals` is the one
kind-to-kernel dispatch, shared by query probes and by the write path
(``repro.sketch.ams.plane_interval_totals``), so the cover is computed
exactly once per query or write, never per cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from repro import obs
from repro.core.dyadic import (
    DyadicInterval,
    dyadic_cover_arrays,
    quaternary_cover_arrays,
)
from repro.query.types import PlanStats

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.sketch.ams import SketchScheme

__all__ = [
    "LevelPlan",
    "plan_interval",
    "plan_for_scheme",
    "scheme_interval_kind",
]

_MAX_PLANNED = 1 << 63  # end-points past this stay on the scalar path


@dataclass(frozen=True)
class LevelPlan:
    """One interval resolved into kernel-shaped dyadic pieces.

    ``lows[p]`` (uint64) / ``levels[p]`` (int64) describe piece
    ``[lows[p], lows[p] + 2^levels[p])`` with **binary** levels even for
    quaternary plans (executors halve them for the 4^j-shaped kernels).
    ``endpoints`` plans carry the raw interval as their single piece and
    ``scalar`` plans none.  The arrays are read-only and left out of
    ``==``: ``(alpha, beta, kind)`` determines them.
    """

    alpha: int
    beta: int
    kind: str  # "quaternary" | "binary" | "endpoints" | "scalar"
    lows: np.ndarray = field(compare=False)
    levels: np.ndarray = field(compare=False)

    def __post_init__(self) -> None:
        self.lows.setflags(write=False)
        self.levels.setflags(write=False)

    @property
    def pieces(self) -> int:
        """Number of dyadic pieces in the cover."""
        return int(self.lows.size)

    @property
    def max_level(self) -> int:
        """Coarsest piece's binary level, or -1 with no pieces."""
        return int(self.levels.max()) if self.levels.size else -1

    def stats(self) -> PlanStats:
        """The plan reduced to the shape recorded on an Estimate."""
        return PlanStats(
            kind=self.kind, pieces=self.pieces, max_level=self.max_level
        )

    def intervals(self) -> list[DyadicInterval]:
        """The pieces as :class:`DyadicInterval` objects (dyadic plans)."""
        if self.kind not in ("quaternary", "binary"):
            raise ValueError(
                f"{self.kind} plans do not decompose into dyadic pieces"
            )
        return [
            DyadicInterval(level, low >> level)
            for low, level in zip(self.lows.tolist(), self.levels.tolist())
        ]

    def covers_exactly(self) -> bool:
        """Whether the pieces tile ``[alpha, beta]`` exactly once."""
        if self.kind not in ("quaternary", "binary"):
            return False
        position = self.alpha
        for low, level in zip(self.lows.tolist(), self.levels.tolist()):
            if low != position:
                return False
            position = low + (1 << level)
        return position == self.beta + 1

    def totals(self, plane: Any) -> np.ndarray:
        """Unit-weight per-counter sums of the plan, from ``plane``'s kernel.

        Quaternary kernels take ``4^j``-shaped half levels, binary ones
        binary levels, endpoint kernels the raw bounds; ``scalar`` plans
        have no kernel pieces and raise.
        """
        if self.kind == "endpoints":
            return plane.interval_totals([self.alpha], [self.beta])
        if self.kind not in ("quaternary", "binary"):
            raise ValueError(f"{self.kind} plans have no kernel pieces")
        levels = self.levels >> 1 if self.kind == "quaternary" else self.levels
        return plane.interval_totals(self.lows, levels)


def scheme_interval_kind(scheme: "SketchScheme") -> str | None:
    """The decomposition family of a scheme's packed kernel, or ``None``.

    The plane's declared ``interval_kind`` decides the piece shape; a
    scheme with no plane has no batched decomposition capability.
    """
    plane = scheme.plane()
    if plane is None:
        return None
    kind = getattr(plane, "interval_kind", None)
    return kind if isinstance(kind, str) else None


def _scalar_plan(alpha: Any, beta: Any) -> LevelPlan:
    low = int(alpha) if isinstance(alpha, (int, np.integer)) else 0
    high = int(beta) if isinstance(beta, (int, np.integer)) else 0
    return LevelPlan(low, high, "scalar", np.zeros(0, np.uint64), np.zeros(0, np.int64))


def plan_interval(alpha: Any, beta: Any, kind: str | None) -> LevelPlan:
    """Resolve one inclusive interval against a decomposition ``kind``.

    Non-integer bounds, negative ``alpha``, ``beta >= 2^63`` or no
    ``kind`` yield a ``scalar`` plan (the channels' own ``range_sum``
    handles errors and exotic domains).  Uncounted: writes plan their
    intervals here too; :func:`plan_for_scheme` counts query plans.
    """
    if not isinstance(alpha, (int, np.integer)) or not isinstance(
        beta, (np.integer, int)
    ):
        return _scalar_plan(alpha, beta)
    alpha = int(alpha)
    beta = int(beta)
    if kind is None or alpha < 0 or beta >= _MAX_PLANNED:
        return _scalar_plan(alpha, beta)
    if kind == "endpoints":
        lows = np.array([alpha], dtype=np.uint64)
        return LevelPlan(alpha, beta, "endpoints", lows, np.zeros(1, np.int64))
    if kind == "quaternary":
        cover = quaternary_cover_arrays([alpha], [beta])
    elif kind == "binary":
        cover = dyadic_cover_arrays([alpha], [beta])
    else:
        raise ValueError(f"unknown decomposition kind {kind!r}")
    return LevelPlan(alpha, beta, kind, cover.lows, cover.levels)


def plan_for_scheme(
    scheme: "SketchScheme", alpha: Any, beta: Any
) -> LevelPlan:
    """Plan ``[alpha, beta]`` in the shape ``scheme``'s kernel consumes."""
    obs.counter("query.plan.plans_total").inc()
    with obs.span("query.plan"):
        plan = plan_interval(alpha, beta, scheme_interval_kind(scheme))
        obs.counter("query.plan.pieces_total").inc(plan.pieces)
        return plan
