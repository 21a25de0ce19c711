"""Exact planar convex geometry kernel.

Convex hulls of finite point sets with explicit handling of the degenerate
cases (a single point, a collinear segment), the functionals of a hull, and
a Cauchy-formula quadrature that serves as an independent perimeter oracle.

Perimeter, area and inradius have one implementation, ``_perimeter_area``
and ``_inradius``: pure Python over the closed vertex cycle, where a segment
counts its length twice.  ``hullstream._functionals_from_vertices`` applies it
to every sampled hull.  Its one twin, ``_perimeter_area_rows``, takes the
hulls and functionals of many integer paths at once for exact enumeration,
and ``test_perimeter_area_rows_matches_scalar`` holds it ``==`` to
``_perimeter_area(_hull(...))``.

All functions are pure; nothing here keeps mutable state, so everything is
safe to call concurrently.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np


def _points_array(points) -> np.ndarray:
    """Normalize a point collection to a finite float array of shape (m, 2)."""
    if isinstance(points, np.ndarray):
        arr = np.asarray(points, dtype=float)
    else:
        seq = list(points)
        if len(seq) == 0:
            raise ValueError("need at least one point")
        arr = np.array([tuple(p) for p in seq], dtype=float)
    if arr.ndim == 1 and arr.shape == (2,):
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"expected points of shape (m, 2), got {arr.shape}")
    if arr.shape[0] == 0:
        raise ValueError("need at least one point")
    if not np.isfinite(arr).all():
        raise ValueError("points must have finite coordinates")
    return arr


# Shewchuk's bound (ccwerrboundA) on the rounding error of the float
# orientation determinant, relative to |left product| + |right product|.
_EPS = 2.0**-53
_ORIENT_ERR = (3.0 + 16.0 * _EPS) * _EPS
# Absolute slack for products that underflow, which the relative bound omits.
_ORIENT_TINY = sys.float_info.min


def _orient2d_exact(o, a, p) -> int:
    """Sign of (a - o) x (p - o) in exact arithmetic: 1, -1 or 0."""
    # Every double is an integer over a power of two, so over the largest
    # denominator all six coordinates are integers and the determinant is exact.
    ratios = [t.as_integer_ratio() for t in (*o, *a, *p)]
    scale = max(d for _, d in ratios)
    ox, oy, ax, ay, px, py = [n * (scale // d) for n, d in ratios]
    det = (ax - ox) * (py - oy) - (ay - oy) * (px - ox)
    return (det > 0) - (det < 0)


def orient2d(o, a, p) -> int:
    """Sign of the turn o -> a -> p: 1 left, -1 right, 0 collinear.

    Exact for all finite double coordinates (Shewchuk 1997): the float
    determinant decides whenever it exceeds its rounding-error bound, and
    only near-degenerate triples fall to the exact stage.
    """
    left = (a[0] - o[0]) * (p[1] - o[1])
    right = (a[1] - o[1]) * (p[0] - o[0])
    det = left - right
    if not abs(det) > _ORIENT_ERR * (abs(left) + abs(right)) + _ORIENT_TINY:
        return _orient2d_exact(o, a, p)
    return 1 if det > 0.0 else -1


def _orient_bound(width: float, height: float, integral: bool) -> float:
    """Bound on the float orientation error for any triple in a width x height box.

    Each float difference is at most a box side and each product at most
    width * height, so this bounds Shewchuk's per-triple bound: a static
    filter that costs one comparison per turn.  For integer coordinates in a
    box of sides up to 2**26 every difference and product is exact, and the
    bound is zero.
    """
    if integral and width <= 2.0**26 and height <= 2.0**26:
        return 0.0
    return _ORIENT_ERR * 2.0 * (width * height) + _ORIENT_TINY


def _chain(points: list[tuple[float, float]], bound: float) -> list[tuple[float, float]]:
    """Monotone-chain hull of lexicographically sorted distinct points, CCW.

    Every kept turn is strictly left in exact arithmetic, so collinear
    triples collapse and the result always passes ConvexPolygon's check.  A
    plain float cross product cannot promise that: on a near-degenerate turn
    its sign depends on the base point it is computed from, whatever the
    coordinate scale.  The turn test is orient2d with a static float filter
    inlined: ``bound`` is ``_orient_bound`` of a box holding the points, and
    only turns within it go to the exact stage.
    """
    hull: list[tuple[float, float]] = []
    for sweep in (points, reversed(points)):  # lower chain, then upper chain
        chain: list[tuple[float, float]] = []
        for p in sweep:
            while len(chain) >= 2:
                o, a = chain[-2], chain[-1]
                det = (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0])
                if det > bound:
                    break
                # with a zero bound det is exact, and det <= 0 is no left turn
                if bound and not det < -bound and _orient2d_exact(o, a, p) > 0:
                    break
                chain.pop()
            chain.append(p)
        hull += chain[:-1]
    return hull


def _hull(points: list[tuple[float, float]], bound: float) -> list[tuple[float, float]]:
    """CCW extreme points of a list of (x, y) float pairs: sort, dedupe, chain.

    ``bound`` is as for ``_chain``.  A single distinct point is its own hull.
    """
    pts = sorted(set(points))
    if len(pts) == 1:
        return pts
    return _chain(pts, bound)


def _perimeter_area(hull: list) -> tuple[float, float]:
    """Perimeter and area of the closed vertex cycle ``hull`` of (x, y) pairs.

    A segment is walked there and back (twice its length, zero area) and a
    point is one zero-length edge, so degenerate hulls need no branches.
    """
    L = 0.0
    A2 = 0.0
    for (x0, y0), (x1, y1) in zip(hull, hull[1:] + hull[:1]):
        L += math.hypot(x1 - x0, y1 - y0)
        A2 += x0 * y1 - x1 * y0
    return L, 0.5 * abs(A2)


def _perimeter_area_rows(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_perimeter_area(_hull(row, 0.0))`` for every row of an (m, k, 2) array, batched.

    Andrew's monotone chain runs over all rows in lockstep.  For integer
    coordinates in a box of sides up to 2**26 (``_orient_bound`` 0) the sort
    key and every turn are exact, so det <= 0 pops collinear and duplicate
    points, and the edges are summed in the scalar cycle order with correctly
    rounded lengths: the result is the scalar pair's, bit for bit.
    """
    m, k, _ = points.shape
    x, y = points[..., 0], points[..., 1]
    x_lo, y_lo = x.min(), y.min()
    order = np.argsort((x - x_lo) * (y.max() - y_lo + 1.0) + (y - y_lo), axis=1)
    x, y = np.take_along_axis(x, order, 1), np.take_along_axis(y, order, 1)
    rows = np.arange(m)
    L, A2 = np.zeros(m), np.zeros(m)
    for sweep in (slice(None), slice(None, None, -1)):  # lower chain, then upper chain
        # row i's chain is cx, cy[i * k : i * k + top[i]], flat for cheap gathers
        cx, cy = np.zeros(m * k), np.zeros(m * k)
        top = np.zeros(m, dtype=np.intp)
        for px, py in zip(x[:, sweep].T, y[:, sweep].T):
            live = rows[top >= 2]
            while live.size:
                a = live * k + top[live] - 1
                ox, oy, ax, ay = cx[a - 1], cy[a - 1], cx[a], cy[a]
                det = (ax - ox) * (py[live] - oy) - (ay - oy) * (px[live] - ox)
                live = live[det <= 0.0]
                top[live] -= 1
                live = live[top[live] >= 2]
            cx[rows * k + top], cy[rows * k + top] = px, py
            top += 1
        cx, cy = cx.reshape(m, k), cy.reshape(m, k)
        for j in range(k - 1):
            x0, y0, x1, y1 = cx[:, j], cy[:, j], cx[:, j + 1], cy[:, j + 1]
            dx, dy = x1 - x0, y1 - y0
            edge = j < top - 1
            L += np.where(edge, np.sqrt(dx * dx + dy * dy), 0.0)
            A2 += np.where(edge, x0 * y1 - x1 * y0, 0.0)
    return L, 0.5 * np.abs(A2)


# A float distance below this fraction of its edge's length may be rounding
# of an exact zero; far above the few ulps the projection can lose.
_ON_EDGE_RTOL = 2.0**-40


def _inradius(hull: list) -> float:
    """Distance from the origin to the closed vertex cycle ``hull`` of (x, y) pairs.

    Exactly 0 when the origin lies on an edge: a new minimum within rounding
    of zero is decided by ``_origin_on_edge``.
    """
    r = math.inf
    for (x0, y0), (x1, y1) in zip(hull, hull[1:] + hull[:1]):
        dx, dy = x1 - x0, y1 - y0
        d2 = dx * dx + dy * dy
        t = min(1.0, max(0.0, -(x0 * dx + y0 * dy) / d2)) if d2 else 0.0
        h = math.hypot(x0 + t * dx, y0 + t * dy)
        if h < r:
            if h <= _ON_EDGE_RTOL * math.hypot(dx, dy) and _origin_on_edge(x0, y0, x1, y1):
                return 0.0
            r = h
    return r


def _origin_on_edge(x0: float, y0: float, x1: float, y1: float) -> bool:
    """Whether the origin lies on the segment (x0, y0)-(x1, y1), in exact arithmetic."""
    in_box = min(x0, x1) <= 0.0 <= max(x0, x1) and min(y0, y1) <= 0.0 <= max(y0, y1)
    return in_box and orient2d((x0, y0), (x1, y1), (0.0, 0.0)) == 0


@dataclass(frozen=True)
class ConvexPolygon:
    """A convex compact set given by its extreme points in CCW order.

    ``vertices`` has shape (k, 2).  A single vertex is a point, two vertices
    are a segment, and three or more form a full-dimensional polygon whose
    consecutive vertex triples all turn strictly left.
    """

    vertices: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] == 0:
            raise ValueError(f"vertices must have shape (k, 2) with k >= 1, got {v.shape}")
        if not np.isfinite(v).all():
            raise ValueError("vertices must be finite")
        k = v.shape[0]
        if k >= 2:
            nxt = np.roll(v, -1, axis=0)
            if np.all(nxt == v, axis=1).any():
                raise ValueError("duplicate consecutive vertices")
        if k >= 3:
            pts = v.tolist()
            if not all(orient2d(pts[i - 2], pts[i - 1], pts[i]) > 0 for i in range(k)):
                raise ValueError("vertices are not in strictly convex CCW position")
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)


def _exponent(a: np.ndarray) -> int:
    """The least e with every |a_i| < 2**e (0 for an all-zero array)."""
    return math.frexp(float(np.abs(a).max()))[1]


def convex_hull(points) -> ConvexPolygon:
    """Convex hull of a finite point set (Andrew's monotone chain).

    Returns the extreme points in CCW order.  Collinear input collapses to a
    segment and coincident input to a point.

    Raises:
        ValueError: if no points are given.
    """
    arr = _points_array(points)
    # Python floats: near the float limit the box sides overflow to inf
    # (every turn then goes to the exact stage) without numpy warnings.
    (x_lo, y_lo), (x_hi, y_hi) = arr.min(axis=0).tolist(), arr.max(axis=0).tolist()
    integral = bool(np.array_equal(arr, np.round(arr)))
    hull = _hull(list(map(tuple, arr.tolist())), _orient_bound(x_hi - x_lo, y_hi - y_lo, integral))
    return ConvexPolygon(np.array(hull))


def cauchy_perimeter(points, n_angles: int) -> float:
    """Perimeter of hull(points) by midpoint quadrature of Cauchy's formula.

    Integrates the projected range max_i(z_i . e_theta) - min_i(z_i . e_theta)
    over theta in [0, pi).  Independent of the hull construction, hence usable
    as an oracle for the perimeter of ``convex_hull(points)``; it reproduces the
    factor-two convention for flat sets automatically.

    Raises:
        ValueError: if no points are given.
    """
    if n_angles < 4:
        raise ValueError(f"n_angles must be >= 4, got {n_angles}")
    arr = _points_array(points)
    theta = (np.arange(n_angles) + 0.5) * (math.pi / n_angles)
    dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    proj = arr @ dirs.T
    widths = proj.max(axis=0) - proj.min(axis=0)
    return float(widths.sum() * (math.pi / n_angles))
