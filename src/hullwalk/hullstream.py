"""Streaming hull functionals (perimeter, area, inradius) along a walk prefix.

``functional_series`` makes one pass over the path: between consecutive
checkpoints it folds the new positions into the running hull, carrying only
the current extreme points forward, so the total work is O(n log n) however
many checkpoints there are.  Large blocks first pass an octagon prefilter
made of elementwise passes over the two coordinate columns; it makes no BLAS
call, so neither its result nor its speed depends on BLAS threads.  Hulls of
the non-degenerate blocks go through Qhull; collinear or tiny blocks fall
back to the exact monotone chain.  The inradius is not edge-local, so it is
evaluated lazily at checkpoints only.

``batch_series`` recomputes every hull from scratch with ``geom2d``'s exact
monotone chain and is the correctness oracle for the fast pass: its hull
construction is independent, and both evaluate (L, A, r) with ``geom2d``'s
functional kernel, ``_perimeter_area`` and ``_inradius``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull as _QhullConvexHull
from scipy.spatial import QhullError as _QhullError

from . import geom2d
from .walkgen import spec_number

DEFAULT_GEOMETRIC_START = 10
DEFAULT_GEOMETRIC_RATIO = 1.25

# Below this many points the Akl-Toussaint pre-filter costs more than it saves.
_FILTER_MIN_POINTS = 4096


class CheckpointSchedule:
    """Strictly increasing step counts at which functionals are reported.

    ``geometric(start, ratio)`` grows multiplicatively from ``start`` and
    always ends at the path length; ``explicit(values)`` is taken verbatim.
    Each is a frozen dataclass holding only its own parameters, so equal
    schedules compare equal.
    """

    @staticmethod
    def geometric(start: int = DEFAULT_GEOMETRIC_START, ratio: float = DEFAULT_GEOMETRIC_RATIO):
        if start < 0 or not 1.0 < ratio < math.inf:
            raise ValueError(f"need start >= 0 and a finite ratio > 1, got ({start}, {ratio})")
        return _Geometric(start, ratio)

    @staticmethod
    def explicit(values):
        vals = tuple(int(v) for v in values)
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValueError(f"checkpoints must be strictly increasing, got {vals}")
        if vals and vals[0] < 0:
            raise ValueError("checkpoints must be nonnegative")
        return _Explicit(vals)

    @staticmethod
    def parse(spec: str) -> "CheckpointSchedule":
        """The inverse of ``spec_string``: geometric[:start,ratio] or explicit:c1,c2,..."""
        name, _, argstr = spec.strip().partition(":")
        name = name.strip().lower()
        toks = argstr.split(",") if argstr else []
        try:
            if name == "geometric" and len(toks) in (0, 2):
                return CheckpointSchedule.geometric(*(f(t) for f, t in zip((int, float), toks)))
            if name == "explicit":
                return CheckpointSchedule.explicit(int(t) for t in toks if t.strip())
        except ValueError as exc:
            raise ValueError(f"bad schedule spec {spec!r}: {exc}") from None
        raise ValueError(f"bad schedule spec {spec!r}; expected geometric[:start,ratio] or explicit:c1,...")


@dataclass(frozen=True)
class _Geometric(CheckpointSchedule):
    start: int
    ratio: float

    def resolve(self, n_steps: int) -> list[int]:
        """Concrete checkpoint list for a path of ``n_steps`` steps."""
        out = []
        c = self.start
        while c < n_steps:
            out.append(c)
            # clamped at n_steps, where the loop ends anyway: c * ratio may
            # overflow to infinity, which has no ceiling
            try:
                c = max(c + 1, math.ceil(min(c * self.ratio, n_steps)))
            except OverflowError:  # c itself is beyond the float range: exact ceiling
                num, den = self.ratio.as_integer_ratio()
                c = max(c + 1, min(-(-c * num // den), n_steps))
        if not out or out[-1] != n_steps:
            out.append(n_steps)
        return out

    def spec_string(self) -> str:
        return f"geometric:{self.start},{spec_number(self.ratio)}"


@dataclass(frozen=True)
class _Explicit(CheckpointSchedule):
    values: tuple[int, ...]

    def resolve(self, n_steps: int) -> list[int]:
        """The checkpoints themselves, which must not exceed ``n_steps``."""
        if self.values and self.values[-1] > n_steps:
            raise ValueError(f"checkpoint {self.values[-1]} exceeds path length {n_steps}")
        return list(self.values)

    def spec_string(self) -> str:
        return "explicit:" + ",".join(str(v) for v in self.values)


@dataclass(frozen=True)
class FunctionalSeries:
    """Per-path hull functionals at a checkpoint schedule.

    All three sequences are nondecreasing in n: the hull only grows, so its
    perimeter and area grow with it, and the origin (where the walk starts)
    only gets deeper inside.
    """

    checkpoints: tuple[int, ...]
    L: np.ndarray
    A: np.ndarray
    r: np.ndarray

    def __len__(self) -> int:
        return len(self.checkpoints)


# ---------------------------------------------------------------------------
# Fast hull of a raw point array
# ---------------------------------------------------------------------------


def _prefilter(points: np.ndarray) -> np.ndarray:
    """Drop points strictly inside the octagon of extremes in 8 directions.

    Every dropped point is a convex combination of kept ones, so the hull is
    unchanged; for diffusive clouds this removes well over 90% of the input.
    The directions (1, 0), (1, 1), (0, 1), (-1, 1) and their negatives have
    entries in {0, +-1}, so the projections x, x + y, y, y - x are exact
    elementwise sums and the extremes need no matrix product (no BLAS call).
    The eight edge tests then run in two reused buffers, in units of a power
    of two that bounds every coordinate: the scaling is exact, so the kept
    points are the same at every scale, and no product overflows.
    """
    x = points[:, 0].copy()
    y = points[:, 1].copy()
    box = [x.argmax(), y.argmax(), x.argmin(), y.argmin()]
    unit = 2.0 ** -max(geom2d._exponent(points[box]), -1023)  # capped where it would overflow
    x *= unit
    y *= unit
    t = x + y
    u = y - x
    idx = [box[0], t.argmax(), box[1], u.argmax(), box[2], t.argmin(), box[3], u.argmin()]
    corners = np.column_stack([x[idx], y[idx]])
    if (corners == corners[0]).all():  # every point is the same point
        return points[:1]
    scale = float(np.abs(corners).max(initial=0.0))
    tol = 1e-9 * scale * scale
    inside = np.ones(len(points), dtype=bool)
    above = np.empty(len(points), dtype=bool)
    for i in range(8):
        a = corners[i]
        b = corners[(i + 1) % 8]
        ex, ey = b[0] - a[0], b[1] - a[1]
        if ex == 0.0 and ey == 0.0:
            continue
        # cross = ex * (y - ay) - ey * (x - ax), in t and u
        np.subtract(y, a[1], out=t)
        t *= ex
        np.subtract(x, a[0], out=u)
        u *= ey
        t -= u
        inside &= np.greater(t, tol, out=above)
    return points[~inside]


def hull_vertices(points: np.ndarray) -> np.ndarray:
    """Extreme points of hull(points) in CCW order, as an (h, 2) array.

    Degenerate inputs give one (point) or two (segment) rows.
    """
    pts = np.ascontiguousarray(points, dtype=float)
    if len(pts) >= _FILTER_MIN_POINTS:
        pts = _prefilter(pts)
    if len(pts) >= 3:
        try:
            q = _QhullConvexHull(pts)
            return pts[q.vertices]
        except _QhullError:
            pass  # flat input: resolve with the exact chain below
    return geom2d.convex_hull(pts).vertices


def _functionals_from_vertices(v: np.ndarray) -> tuple[float, float, float]:
    """(L, A, r) of the polygon with vertex cycle v; origin assumed inside."""
    hull = v.tolist()
    return (*geom2d._perimeter_area(hull), geom2d._inradius(hull))


# ---------------------------------------------------------------------------
# Series builders
# ---------------------------------------------------------------------------


def _series_arrays(positions: np.ndarray, checkpoints: list[int]) -> np.ndarray:
    """(k, 3) array of (L, A, r) at the checkpoints, single pass over positions."""
    out = np.empty((len(checkpoints), 3))
    carry = positions[:1]
    prev = 0
    for j, c in enumerate(checkpoints):
        if c > prev:
            block = positions[prev + 1 : c + 1]
            carry = hull_vertices(np.concatenate([carry, block]))
            prev = c
        out[j] = _functionals_from_vertices(carry)
    return out


def functional_series(positions: np.ndarray, sched: CheckpointSchedule) -> FunctionalSeries:
    """Hull functionals along the (n+1, 2) positions at the scheduled checkpoints.

    Raises:
        ValueError: if a checkpoint exceeds the path length.
    """
    checkpoints = sched.resolve(len(positions) - 1)
    vals = _series_arrays(positions, checkpoints)
    return FunctionalSeries(tuple(checkpoints), vals[:, 0].copy(), vals[:, 1].copy(), vals[:, 2].copy())


def batch_series(positions: np.ndarray, sched: CheckpointSchedule) -> FunctionalSeries:
    """Reference implementation: hull from scratch at every checkpoint."""
    checkpoints = sched.resolve(len(positions) - 1)
    vals = np.empty((len(checkpoints), 3))
    for j, c in enumerate(checkpoints):
        vals[j] = _functionals_from_vertices(geom2d.convex_hull(positions[: c + 1]).vertices)
    return FunctionalSeries(tuple(checkpoints), vals[:, 0].copy(), vals[:, 1].copy(), vals[:, 2].copy())
