"""Tour of the planar hull kernel: hulls, degenerate conventions, oracles.

Run:  python3 demos/01_hull_geometry.py
"""

import math

import numpy as np

from hullwalk.geom2d import (
    area,
    cauchy_perimeter,
    convex_hull,
    dist_origin_to_boundary,
    hausdorff,
    perimeter,
    steiner_area,
    support,
)

# A square with an interior point: the hull keeps only the extreme points.
square = convex_hull([(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5)])
print("square vertices:", square.vertices.tolist())
print("perimeter:", perimeter(square), " area:", area(square))

# Collinear points collapse to a segment.  Flat sets carry the factor-two
# perimeter convention: the boundary of a segment is walked both ways.
segment = convex_hull([(0, 0), (1, 0), (2, 0)])
print("\nsegment:", segment.vertices.tolist(), "-> perimeter", perimeter(segment))

# Cauchy's formula integrates the projected width over directions and is an
# independent route to the same perimeter, degenerate cases included.
print("cauchy oracle, square :", cauchy_perimeter([(0, 0), (1, 0), (1, 1), (0, 1)], 4096))
print("cauchy oracle, segment:", cauchy_perimeter([(0, 0), (2, 0)], 4096))

# Support function and Hausdorff distance between convex bodies.
print("\nsupport of square at (1,0):", support(square, (1.0, 0.0)))
shifted = convex_hull(square.vertices + np.array([3.0, 0.0]))
print("hausdorff(square, square+3e1):", hausdorff(square, shifted))

# Steiner's parallel-body identity: area + r * perimeter + pi r^2.
r = 0.25
print("\nsteiner area of square at r=0.25:", steiner_area(square, r))
print("by hand:", area(square) + r * perimeter(square) + math.pi * r * r)

# Distance from the origin to the hull boundary (the walk's inradius).
centered = convex_hull([(-1, -1), (1, -1), (1, 1), (-1, 1)])
print("\ninradius of [-1,1]^2:", dist_origin_to_boundary(centered))

# Random cloud: hull of hull equals hull, and the Cauchy oracle agrees.
rng = np.random.default_rng(0)
cloud = rng.standard_normal((300, 2))
poly = convex_hull(cloud)
again = convex_hull(poly.vertices)
print("\nrandom cloud hull size:", len(poly.vertices), " idempotent:", np.array_equal(poly.vertices, again.vertices))
print("perimeter vs cauchy:", perimeter(poly), cauchy_perimeter(cloud, 4096))
