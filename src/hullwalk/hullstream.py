"""Streaming hull functionals (perimeter, area, inradius) along a walk prefix.

``functional_series`` makes one pass over the path: between consecutive
checkpoints it folds the new positions into the running hull, carrying only
the current extreme points forward, so the total work is O(n log n) however
many checkpoints there are.  Large blocks first pass a block cull: the hull
of every 64th point drops, whole, each run of 64 consecutive points whose
bounding box lies strictly inside it, and then the single points inside it.
It keeps the rest in input order and makes no BLAS call, so neither its
result nor its speed depends on BLAS threads.  Hulls of the non-degenerate
blocks go through Qhull; collinear or tiny blocks fall back to the exact
monotone chain.  The inradius is not edge-local, so it is evaluated lazily
at checkpoints only.

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

# Blocks of this many consecutive points are culled together, and every
# _BLOCK-th point spans the inner hull that culls them.
_BLOCK = 64
# Below this many points the block cull costs more than it saves.
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


# ---------------------------------------------------------------------------
# Fast hull of a raw point array
# ---------------------------------------------------------------------------


def _chains(cycle: np.ndarray) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """The lower and upper chains of a CCW cycle, each as its edges from left to right.

    Both chains run from the cycle's lexicographic minimum to its maximum.
    A chain's edges are (interior vertex x, edge start x, start y, dx, dy).
    """
    n = len(cycle)
    order = np.lexsort((cycle[:, 1], cycle[:, 0]))
    k = (order[-1] - order[0]) % n
    ring = (np.arange(n + 1) + order[0]) % n  # the cycle from its minimum back to it
    chains = []
    for idx in (ring[: k + 1], ring[n : k - 1 : -1]):
        x, y = cycle[idx, 0], cycle[idx, 1]
        chains.append((x[1:-1], x[:-1], y[:-1], x[1:] - x[:-1], y[1:] - y[:-1]))
    return chains[0], chains[1]


def _cross(edges: tuple[np.ndarray, ...], x: np.ndarray, y: np.ndarray, side: str) -> np.ndarray:
    """Cross product of each point (x, y) with the chain edge over its x: positive above the edge.

    At the x of a vertex, ``side="right"`` takes the edge that starts there
    and ``side="left"`` the edge that ends there.
    """
    xs, x0, y0, dx, dy = edges
    j = np.searchsorted(xs, x, side=side)
    return dx[j] * (y - y0[j]) - dy[j] * (x - x0[j])


def _inside(chains, x: np.ndarray, ylo: np.ndarray, yhi: np.ndarray, tol: float) -> np.ndarray:
    """Where (x, ylo) lies above the lower chain and (x, yhi) below the upper chain, each by more than tol.

    A vertical edge can only close the lower chain or open the upper one; at
    its x the cross product is taken with it, so a point on it is not inside.
    """
    lower, upper = chains
    return (_cross(lower, x, ylo, "right") > tol) & (_cross(upper, x, yhi, "left") < -tol)


def _prefilter(points: np.ndarray) -> np.ndarray:
    """Drop points strictly inside the hull of every ``_BLOCK``-th point.

    That inner hull's vertices are input points, so every dropped point is a
    convex combination of kept ones.  The input is cut into blocks of
    ``_BLOCK`` consecutive points: a block whose bounding box lies inside the
    inner hull goes whole, and only the points of the other blocks are tested
    one by one.  A point (or box corner) counts as inside when it lies above
    the inner hull's lower chain and below its upper chain at its own x (one
    ``searchsorted`` per chain, then one cross product), each by more than
    ``1e-9 * scale**2``: far above the rounding of the test, so it is
    strictly inside in exact arithmetic, and since the inner hull is convex,
    a box whose corners are inside is inside.  The survivors keep their
    input order.  Qhull then finds the same vertices as on the whole input,
    and as a rule the same cycle; the cycle can start at another vertex
    where a dropped point would have been a passing vertex of its
    construction, which moves the perimeter and area by one rounding.

    The tests make no BLAS call and run in units of a power of two that
    bounds every coordinate, the inner hull's Qhull call included: the
    scaling is exact, so the kept points are the same at every scale, and no
    product overflows.  A flat sample has no inner hull; the input is then
    returned unchanged.
    """
    starts = np.arange(0, len(points), _BLOCK)
    lo = np.minimum.reduceat(points, starts, axis=0)
    hi = np.maximum.reduceat(points, starts, axis=0)
    unit = 2.0 ** -max(geom2d._exponent(lo), geom2d._exponent(hi), -1023)  # capped where it would overflow
    lo *= unit
    hi *= unit
    inner = points[::_BLOCK] * unit
    try:
        chains = _chains(inner[_QhullConvexHull(inner).vertices])
    except _QhullError:
        return points
    scale = max(float(np.abs(lo).max()), float(np.abs(hi).max()))
    tol = 1e-9 * scale * scale
    boxes = np.ones(len(starts), dtype=bool)
    for end in (lo, hi):  # the box's low corner at this end against the lower chain, its high one the upper
        boxes &= _inside(chains, end[:, 0], lo[:, 1], hi[:, 1], tol)
    idx = (np.flatnonzero(~boxes)[:, None] * _BLOCK + np.arange(_BLOCK)).ravel()
    idx = idx[idx < len(points)]
    x, y = (points[idx] * unit).T
    return points[idx[~_inside(chains, x, y, y, tol)]]


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
