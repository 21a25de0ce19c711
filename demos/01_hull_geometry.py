"""Tour of the planar hull kernel: hulls, degenerate conventions, oracles.

Run:  python3 demos/01_hull_geometry.py
"""

import numpy as np

from hullwalk.geom2d import cauchy_perimeter, convex_hull, orient2d
from hullwalk.hullstream import CheckpointSchedule, functional_series


def functionals(points):
    """(L, A, r) of hull(points), as every command computes them for a path's hull."""
    s = functional_series(np.asarray(points, dtype=float), CheckpointSchedule.explicit([len(points) - 1]))
    return float(s.L[0]), float(s.A[0]), float(s.r[0])


# A square with an interior point: the hull keeps only the extreme points.
# r is the distance from the origin to the boundary: 0 at a vertex.
square = [(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5)]
print("square vertices:", convex_hull(square).vertices.tolist())
print("perimeter, area, inradius:", functionals(square))

# Collinear points collapse to a segment.  Flat sets carry the factor-two
# perimeter convention: the boundary of a segment is walked both ways.
segment = [(0, 0), (1, 0), (2, 0)]
print("\nsegment:", convex_hull(segment).vertices.tolist(), "-> (L, A, r)", functionals(segment))

# Cauchy's formula integrates the projected width over directions and is an
# independent route to the same perimeter, degenerate cases included.
print("cauchy oracle, square :", cauchy_perimeter(square, 4096))
print("cauchy oracle, segment:", cauchy_perimeter(segment, 4096))

# The orientation test is exact: these points are off the line y = 3x only
# by rounding, and a thin triangle of area 2.5e-214 stays a triangle.
o, a, p = (0.1, 0.3), (0.2, 0.6), (0.3, 0.9)
print("\norient2d of three almost collinear points:", orient2d(o, a, p))
print("thin triangle's hull:", convex_hull([(0.0, 0.0), (1.0, 1.0), (4.95e-214, 0.0)]).vertices.tolist())

# Distance from the origin to the hull boundary (the walk's inradius).
print("\ninradius of [-1,1]^2:", functionals([(-1, -1), (1, -1), (1, 1), (-1, 1)])[2])

# Random cloud: hull of hull equals hull, and the Cauchy oracle agrees.
rng = np.random.default_rng(0)
cloud = rng.standard_normal((300, 2))
poly = convex_hull(cloud)
again = convex_hull(poly.vertices)
print("\nrandom cloud hull size:", len(poly.vertices), " idempotent:", np.array_equal(poly.vertices, again.vertices))
print("perimeter vs cauchy:", functionals(cloud)[0], cauchy_perimeter(cloud, 4096))
