"""Geometry kernel: exact values, degenerate conventions, metric properties."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hullwalk import geom2d as g

SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]

# Thin triangles (area about 1e-214 and 1e-152) whose turns a plain float
# cross product rounds to zero from some base points but not from others.
THIN_TRIANGLE = [(0.0, 0.0), (1.0, 1.0), (4.95e-214, 0.0)]
THIN_TRIANGLE_2 = [(0.0, 0.0), (1.0, 1.0), (3.04e-152, 0.0)]


def coords(lo=-100.0, hi=100.0):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


def point_lists(min_size=1, max_size=30):
    return st.lists(st.tuples(coords(), coords()), min_size=min_size, max_size=max_size)


# ---------------------------------------------------------------------------
# convex_hull
# ---------------------------------------------------------------------------


def test_hull_drops_interior_point():
    poly = g.convex_hull(SQUARE + [(0.5, 0.5)])
    assert len(poly.vertices) == 4
    assert sorted(map(tuple, poly.vertices)) == sorted(SQUARE)


def test_hull_collinear_becomes_segment():
    poly = g.convex_hull([(0, 0), (1, 0), (2, 0)])
    assert len(poly.vertices) == 2
    assert sorted(map(tuple, poly.vertices)) == [(0.0, 0.0), (2.0, 0.0)]


def test_hull_repeated_point():
    poly = g.convex_hull([(0.0, 0.0)] * 5)
    assert len(poly.vertices) == 1
    assert poly.vertices.tolist() == [[0.0, 0.0]]


def test_hull_empty_input_raises():
    with pytest.raises(ValueError, match="need at least one point"):
        g.convex_hull([])


@given(point_lists())
@example(THIN_TRIANGLE)
@settings(max_examples=150, deadline=None)
def test_hull_contains_inputs_and_vertices_are_inputs(points):
    poly = g.convex_hull(points)
    assert all(poly.contains(p) for p in points)
    input_set = {(float(x), float(y)) for x, y in points}
    assert all(tuple(v) in input_set for v in poly.vertices)


@given(point_lists())
@settings(max_examples=150, deadline=None)
def test_hull_idempotent(points):
    poly = g.convex_hull(points)
    again = g.convex_hull(poly.vertices)
    assert np.array_equal(poly.vertices, again.vertices)


@given(point_lists(min_size=2), point_lists(min_size=1, max_size=10))
@settings(max_examples=100, deadline=None)
def test_hull_monotone_under_adding_points(points, extra):
    small = g.convex_hull(points)
    big = g.convex_hull(points + extra)
    assert g.perimeter(big) >= g.perimeter(small) - 1e-9
    assert g.area(big) >= g.area(small) - 1e-9


@given(point_lists(), coords(-10, 10), coords(-10, 10), st.floats(0.1, 8.0))
@example(THIN_TRIANGLE, 0.0, 0.0, 1.0)
@settings(max_examples=100, deadline=None)
def test_perimeter_area_translation_and_scaling(points, dx, dy, alpha):
    base = g.convex_hull(points)
    arr = np.asarray(points, dtype=float)
    moved = g.convex_hull(arr + [dx, dy])
    scaled = g.convex_hull(arr * alpha)
    L = g.perimeter(base)
    assert math.isclose(g.perimeter(moved), L, rel_tol=1e-9, abs_tol=1e-7)
    assert math.isclose(g.perimeter(scaled), alpha * L, rel_tol=1e-9, abs_tol=1e-9)
    A = g.area(base)
    assert math.isclose(g.area(moved), A, rel_tol=1e-7, abs_tol=1e-5)
    assert math.isclose(g.area(scaled), alpha * alpha * A, rel_tol=1e-9, abs_tol=1e-9)


def test_hull_of_thin_triangles_is_a_triangle():
    for pts in (THIN_TRIANGLE, THIN_TRIANGLE_2):
        poly = g.convex_hull(pts)
        assert sorted(map(tuple, poly.vertices)) == sorted(pts)


def _exact_sign(o, a, p):
    F = Fraction
    det = (F(a[0]) - F(o[0])) * (F(p[1]) - F(o[1])) - (F(a[1]) - F(o[1])) * (F(p[0]) - F(o[0]))
    return (det > 0) - (det < 0)


@given(st.tuples(coords(), coords()), st.tuples(coords(), coords()), st.tuples(coords(), coords()))
@example((0.0, 0.0), (4.95e-214, 0.0), (1.0, 1.0))  # left turn of area 2.5e-214
@example((1.0, 1.0), (4.95e-214, 0.0), (0.0, 0.0))  # the same turn, reversed
@example((0.0, 0.0), (1e-200, 0.0), (0.0, 1e-200))  # products underflow to zero
@example((0.1, 0.3), (0.2, 0.6), (0.3, 0.9))  # off the line y = 3x by rounding only
@example((0.0, 0.0), (1.0, 1.0), (2.0, 2.0))  # exactly collinear
@settings(max_examples=300, deadline=None)
def test_orient2d_matches_exact_rational(o, a, p):
    assert g.orient2d(o, a, p) == _exact_sign(o, a, p)


# ---------------------------------------------------------------------------
# perimeter / area / support
# ---------------------------------------------------------------------------


def test_contains_near_float_limit():
    # coordinate differences here overflow to inf without rescaling
    poly = g.convex_hull([(1e308, 1e308), (-1e308, -1e308), (1e308, -1e308)])
    assert poly.contains((0.0, 0.0))  # on the diagonal edge
    assert poly.contains((5e307, -5e307))
    assert not poly.contains((-1e308, 1e308))
    assert not poly.contains((-1e307, 0.0))
    assert poly.diameter == math.inf  # 2 sqrt(2) 1e308 exceeds the float range
    big = g.convex_hull([(1e200, 0.0), (0.0, 1e200), (-1e200, -1e200)])
    assert math.isclose(big.diameter, math.sqrt(5.0) * 1e200, rel_tol=1e-15)
    assert big.contains((0.0, 0.0)) and not big.contains((1e200, 1e200))


NEAR_LIMIT_TRIANGLE = [(1e308, 1e308), (-1e308, -1e308), (1e308, -1e308)]


def test_hull_near_float_limit_without_warnings():
    # the box sides overflow; the chain must still run without float warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        poly = g.convex_hull(NEAR_LIMIT_TRIANGLE)
    assert sorted(map(tuple, poly.vertices.tolist())) == sorted(NEAR_LIMIT_TRIANGLE)


def test_functionals_near_float_limit():
    poly = g.convex_hull(NEAR_LIMIT_TRIANGLE)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert g.dist_origin_to_boundary(poly) == 0.0  # the diagonal edge passes through it
        assert g.perimeter(poly) == math.inf and g.area(poly) == math.inf


def test_kernel_degenerate_cycles():
    # a segment is walked there and back, a point is one zero-length edge
    assert g._perimeter_area([[0.0, 0.0], [3.0, 4.0]]) == (10.0, 0.0)
    assert g._perimeter_area([[2.0, 5.0]]) == (0.0, 0.0)
    assert g._inradius([[-1.0, 1.0], [1.0, 1.0]]) == 1.0
    assert g._inradius([[3.0, 4.0]]) == 5.0
    assert g._inradius([[0.0, 0.0]]) == 0.0
    assert g._hull([(1.0, 1.0), (1.0, 1.0)], 0.0) == [(1.0, 1.0)]
    assert g._hull([(2.0, 0.0), (0.0, 0.0), (1.0, 0.0), (0.0, 0.0)], 0.0) == [(0.0, 0.0), (2.0, 0.0)]


def _scalar_rows(rows: np.ndarray) -> list:
    return [g._perimeter_area(g._hull(list(map(tuple, row)), 0.0)) for row in rows.tolist()]


def test_exact_sum_sqrt_is_math_hypot_on_small_integers():
    # the batched kernel's edge length; np.hypot differs at 132 of these pairs
    x, y = np.meshgrid(np.arange(-100.0, 101.0), np.arange(-100.0, 101.0))
    hypot = [math.hypot(a, b) for a, b in zip(x.ravel().tolist(), y.ravel().tolist())]
    assert np.sqrt(x * x + y * y).ravel().tolist() == hypot


@pytest.mark.parametrize(
    "rows",
    [
        [[[0, 0]]],
        [[[3, 4], [3, 4], [3, 4], [3, 4]]],  # all points equal
        [[[0, 0], [27, 17]], [[0, 0], [43, 45]]],  # np.hypot rounds these edges differently
        [[[0, 0], [27, 17], [0, 0], [27, 17], [-5, 9]]],  # duplicates of hull vertices
        [[[0, 0], [1, 1], [2, 2], [3, 3], [1, 1], [-1, -1]]],  # one collinear run
        [[[0, 0], [2, 0], [1, 0], [2, 2], [2, 1], [0, 2], [1, 2], [0, 1], [1, 1]]],  # collinear edges
        [[[0, 0], [1, 0], [1, 1], [0, 1]], [[5, 5], [5, 5], [5, 5], [5, 6]]],
    ],
    ids=["point", "all-equal", "hypot-edges", "duplicates", "collinear-run", "collinear-edges", "mixed"],
)
def test_perimeter_area_rows_cases(rows):
    arr = np.array(rows, dtype=float)
    L, A = g._perimeter_area_rows(arr)
    assert list(zip(L.tolist(), A.tolist())) == _scalar_rows(arr)


# Small coordinates give duplicates and collinear runs; large ones reach the
# box of side 2**26 within which the kernel is exact.
kernel_ints = st.one_of(st.integers(-4, 4), st.integers(-(2**25), 2**25))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 12).flatmap(
        lambda k: st.lists(st.lists(st.tuples(kernel_ints, kernel_ints), min_size=k, max_size=k), min_size=1, max_size=6)
    )
)
def test_perimeter_area_rows_matches_scalar(rows):
    arr = np.array(rows, dtype=float)
    L, A = g._perimeter_area_rows(arr)
    assert list(zip(L.tolist(), A.tolist())) == _scalar_rows(arr)


def test_inradius_zero_on_edge_through_origin():
    # the float projection of the origin onto these edges rounds to about 1e-17
    seg = [[-0.1, -0.3], [0.2, 0.6]]
    assert g._inradius(seg) == 0.0
    assert g._inradius(seg + [[-1.0, 1.0]]) == 0.0
    assert g.dist_origin_to_boundary(g.convex_hull(seg)) == 0.0
    # an edge that misses the origin by two ulps keeps its float distance
    near = [[-0.1, -0.3], [0.2, math.nextafter(math.nextafter(0.6, 1.0), 1.0)]]
    assert 0.0 < g._inradius(near) < 1e-16


def test_perimeter_values():
    assert g.perimeter(g.convex_hull(SQUARE)) == 4.0
    assert g.perimeter(g.convex_hull([(0, 0), (2, 0)])) == 4.0  # flat sets count twice
    assert g.perimeter(g.convex_hull([(3, 4)])) == 0.0


def test_area_values():
    assert g.area(g.convex_hull(SQUARE)) == 1.0
    assert g.area(g.convex_hull([(0, 0), (2, 0)])) == 0.0
    assert g.area(g.convex_hull([(0, 0), (1, 0), (0, 1)])) == 0.5


def test_support_values():
    poly = g.convex_hull(SQUARE)
    assert g.support(poly, (1.0, 0.0)) == 1.0
    assert g.support(poly, (-1.0, 0.0)) == 0.0
    pt = g.convex_hull([(2.0, -3.0)])
    d = (1 / math.sqrt(2), 1 / math.sqrt(2))
    assert math.isclose(g.support(pt, d), 2 * d[0] - 3 * d[1])


def test_support_requires_unit_direction():
    with pytest.raises(ValueError, match=r"direction has norm 1\.41421356237309\d*, expected 1"):
        g.support(g.convex_hull(SQUARE), (1.0, 1.0))


# ---------------------------------------------------------------------------
# hausdorff
# ---------------------------------------------------------------------------


def test_hausdorff_identical_zero():
    a = g.convex_hull(SQUARE)
    assert g.hausdorff(a, a) == 0.0


def test_hausdorff_translation():
    a = g.convex_hull(SQUARE)
    b = g.convex_hull(np.asarray(SQUARE) + [1.0, 0.0])
    assert abs(g.hausdorff(a, b) - 1.0) <= 1e-6


def _parallel_body_polygon(poly, r, arc_points=64):
    """Polygonal sampling of the r-parallel body of a convex polygon."""
    v = poly.vertices
    e = np.roll(v, -1, axis=0) - v
    normals = np.arctan2(-e[:, 0], e[:, 1])
    pts = []
    for i in range(len(v)):
        a0 = normals[i - 1]
        a1 = normals[i]
        while a1 < a0:
            a1 += 2 * math.pi
        for t in np.linspace(a0, a1, arc_points):
            pts.append((v[i, 0] + r * math.cos(t), v[i, 1] + r * math.sin(t)))
    return g.convex_hull(pts)


def test_hausdorff_parallel_body():
    r = 0.37
    a = g.convex_hull(SQUARE)
    b = _parallel_body_polygon(a, r)
    assert abs(g.hausdorff(a, b) - r) <= 2e-3


@given(point_lists(), point_lists(), point_lists())
@settings(max_examples=40, deadline=None)
def test_hausdorff_metric_properties(p1, p2, p3):
    a, b, c = (g.convex_hull(p) for p in (p1, p2, p3))
    dab = g.hausdorff(a, b)
    assert dab >= 0.0
    assert g.hausdorff(b, a) == dab  # symmetry is exact
    tol = 2.0 * (2 * math.pi / 4096) * max(a.diameter, b.diameter, c.diameter, 1.0)
    assert dab <= g.hausdorff(a, c) + g.hausdorff(c, b) + tol


# ---------------------------------------------------------------------------
# cauchy_perimeter (independent oracle)
# ---------------------------------------------------------------------------


def test_cauchy_square():
    assert abs(g.cauchy_perimeter(SQUARE, 4096) - 4.0) <= 5e-3


def test_cauchy_degenerate_segment():
    # integral of |cos| over [0, pi) is 2, matching the factor-two convention
    assert abs(g.cauchy_perimeter([(0, 0), (1, 0)], 4096) - 2.0) <= 5e-3


def test_cauchy_single_point():
    assert g.cauchy_perimeter([(1.0, 2.0)], 4096) == 0.0


def test_cauchy_requires_enough_angles():
    with pytest.raises(ValueError):
        g.cauchy_perimeter(SQUARE, 3)


def test_cauchy_empty_raises():
    with pytest.raises(ValueError, match="need at least one point"):
        g.cauchy_perimeter([], 4096)


@given(st.lists(st.tuples(coords(), coords()), min_size=1, max_size=100))
@example(THIN_TRIANGLE_2)
@settings(max_examples=100, deadline=None)
def test_cauchy_agrees_with_perimeter(points):
    poly = g.convex_hull(points)
    tol = (10.0 / 4096) * max(poly.diameter, 1e-9)
    assert abs(g.perimeter(poly) - g.cauchy_perimeter(points, 4096)) <= tol


# ---------------------------------------------------------------------------
# dist_origin_to_boundary / steiner_area
# ---------------------------------------------------------------------------


def test_dist_origin_centered_square():
    poly = g.convex_hull([(-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5)])
    assert math.isclose(g.dist_origin_to_boundary(poly), 0.5)


def test_dist_origin_vertex_and_segment():
    assert g.dist_origin_to_boundary(g.convex_hull(SQUARE)) == 0.0
    seg = g.convex_hull([(-1.0, 0.0), (2.0, 0.0)])
    assert g.dist_origin_to_boundary(seg) == 0.0


def test_dist_origin_outside_raises():
    poly = g.convex_hull(np.asarray(SQUARE) + [10.0, 10.0])
    with pytest.raises(ValueError, match="origin is not inside the polygon"):
        g.dist_origin_to_boundary(poly)


def test_steiner_area_values():
    sq = g.convex_hull(SQUARE)
    assert math.isclose(g.steiner_area(sq, 1.0), 1 + 4 + math.pi)
    assert math.isclose(g.steiner_area(g.convex_hull([(5, 5)]), 1.0), math.pi)
    seg = g.convex_hull([(0, 0), (1, 0)])
    assert math.isclose(g.steiner_area(seg, 0.5), 0.0 + 0.5 * 2.0 + math.pi * 0.25)
    with pytest.raises(ValueError):
        g.steiner_area(sq, -0.1)


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------


def test_polygon_invariants():
    with pytest.raises(ValueError):
        g.ConvexPolygon(np.array([[0.0, 0.0], [0.0, 0.0]]))  # duplicate vertices
    with pytest.raises(ValueError):
        g.ConvexPolygon(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))  # collinear
    with pytest.raises(ValueError):
        # clockwise square is not CCW
        g.ConvexPolygon(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]]))
    for k in (1, 2, 4):
        assert len(g.convex_hull(SQUARE[:k]).vertices) == k
