"""Streaming series vs the batch oracle, schedules, and the inradius dichotomy."""

import math
import re

import numpy as np
import pytest

from hullwalk import hullstream as hs
from hullwalk import walkgen as w

ALL_SPECS = ["lattice", "hex6", "pr", "pr:0.2,0", "gauss", "st-binary", "st-gauss", "pareto:1.5"]


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------


def test_geometric_schedule_resolution():
    sched = hs.CheckpointSchedule.geometric(10, 1.25)
    cps = sched.resolve(100)
    assert cps[0] == 10 and cps[-1] == 100
    assert all(b > a for a, b in zip(cps, cps[1:]))
    assert sched.resolve(5) == [5]
    assert sched.resolve(0) == [0]
    # 10 * 1e308 overflows to infinity; the step is clamped at the path length
    assert hs.CheckpointSchedule.geometric(10, 1e308).resolve(100) == [10, 100]


def test_geometric_schedule_beyond_the_float_range():
    # c * ratio cannot convert c to a float here, so the ceiling is taken exactly
    start, n = int("1" * 310), int("9" * 401)
    cps = hs.CheckpointSchedule.geometric(start, 2.0).resolve(n)
    assert cps[:2] == [start, 2 * start] and cps[-1] == n
    assert all(b > a for a, b in zip(cps, cps[1:]))
    assert hs.CheckpointSchedule.geometric(start, 1.25).resolve(n)[1] == -(-start * 5 // 4)


def test_explicit_schedule_validation():
    sched = hs.CheckpointSchedule.explicit([0, 3, 7])
    assert sched.resolve(10) == [0, 3, 7]
    with pytest.raises(ValueError, match="checkpoint 7 exceeds path length 5"):
        sched.resolve(5)
    with pytest.raises(ValueError):
        hs.CheckpointSchedule.explicit([3, 3])
    assert hs.CheckpointSchedule.explicit([]).resolve(4) == []


def test_schedule_spec_round_trip():
    # 1.2345678 has more than 6 significant digits, which '%g' dropped
    for spec in ("geometric:10,1.25", "explicit:1,5,25", "geometric:2,2", "geometric:10,1.2345678"):
        sched = hs.CheckpointSchedule.parse(spec)
        assert hs.CheckpointSchedule.parse(sched.spec_string()) == sched
    with pytest.raises(ValueError):
        hs.CheckpointSchedule.parse("linear:1,2")


def test_schedule_equality_and_bad_specs():
    geo, exp = hs.CheckpointSchedule.geometric, hs.CheckpointSchedule.explicit
    assert hs.CheckpointSchedule.parse("geometric") == geo(10, 1.25) == geo()
    assert hs.CheckpointSchedule.parse("explicit:0,1,2") == exp(range(3))
    assert geo(2, 2.0) != exp([2]) and geo(2, 2.0) != geo(2, 3.0)
    assert exp([]).spec_string() == "explicit:" and geo(2, 2.0).spec_string() == "geometric:2,2"
    for spec in ("geometric:1", "geometric:1,2,3", "geometric:a,2", "geometric:-1,2", "explicit:1,x"):
        with pytest.raises(ValueError, match=f"bad schedule spec {re.escape(repr(spec))}"):
            hs.CheckpointSchedule.parse(spec)


# ---------------------------------------------------------------------------
# functional series
# ---------------------------------------------------------------------------


def _path(points):
    return np.asarray(points, dtype=float)


def test_series_right_triangle():
    series = hs.functional_series(_path([(0, 0), (1, 0), (1, 1)]), hs.CheckpointSchedule.explicit([2]))
    assert math.isclose(series.L[0], 2 + math.sqrt(2))
    assert series.A[0] == 0.5
    assert series.r[0] == 0.0  # the origin is a hull vertex


def test_series_collinear_convention():
    series = hs.functional_series(_path([(0, 0), (1, 0), (2, 0)]), hs.CheckpointSchedule.explicit([2]))
    assert series.L[0] == 4.0 and series.A[0] == 0.0 and series.r[0] == 0.0


def test_series_zero_checkpoint_and_empty():
    series = hs.batch_series(_path([(0, 0)]), hs.CheckpointSchedule.explicit([0]))
    assert series.L[0] == 0.0 and series.A[0] == 0.0 and series.r[0] == 0.0
    empty = hs.batch_series(_path([(0, 0), (1, 0)]), hs.CheckpointSchedule.explicit([]))
    assert len(empty) == 0


def test_batch_equals_functional_on_examples():
    for pts in ([(0, 0), (1, 0), (1, 1)], [(0, 0), (1, 0), (2, 0)]):
        sched = hs.CheckpointSchedule.explicit([1, 2])
        a = hs.functional_series(_path(pts), sched)
        b = hs.batch_series(_path(pts), sched)
        assert np.allclose(a.L, b.L) and np.allclose(a.A, b.A) and np.allclose(a.r, b.r)


def test_series_matches_batch_at_every_prefix_lattice():
    sched = hs.CheckpointSchedule.explicit(range(51))
    path = w.sample_path(w.LatticeSRW(), 50, w.RngStream(123, 5).generator())
    a = hs.functional_series(path, sched)
    b = hs.batch_series(path, sched)
    assert np.array_equal(a.L, b.L) or np.allclose(a.L, b.L, rtol=1e-12)
    assert np.allclose(a.A, b.A, rtol=1e-12, atol=0.0)
    assert np.allclose(a.r, b.r, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_equivalence_on_random_paths(spec):
    # 1000 paths across the model zoo, exact to 1e-9 relative
    model = w.parse_model(spec)
    sched = hs.CheckpointSchedule.geometric(5, 1.4)
    for i in range(125):
        path = w.sample_path(model, 200, w.RngStream(31, i).generator())
        a = hs.functional_series(path, sched)
        b = hs.batch_series(path, sched)
        for x, y in ((a.L, b.L), (a.A, b.A), (a.r, b.r)):
            assert np.allclose(x, y, rtol=1e-9, atol=1e-12)


# Paths of 5,000-20,000 points reach the octagon prefilter (hs._FILTER_MIN_POINTS).
PREFILTER_SPECS = ["gauss", "pr:0.4,0", "lattice", "hex6", "st-binary"]
OCTANT_DIRS = np.array(
    [[1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [-1.0, 1.0], [-1.0, 0.0], [-1.0, -1.0], [0.0, -1.0], [1.0, -1.0]]
)


def _prefilter_by_matmul(points):
    """The octagon prefilter with its projections as one matrix product."""
    corners = points[np.argmax(points @ OCTANT_DIRS.T, axis=0)]
    scale = float(np.abs(corners).max(initial=0.0))
    tol = 1e-9 * scale * scale
    inside = np.ones(len(points), dtype=bool)
    for i in range(8):
        a, b = corners[i], corners[(i + 1) % 8]
        ex, ey = b[0] - a[0], b[1] - a[1]
        if ex == 0.0 and ey == 0.0:
            continue
        inside &= ex * (points[:, 1] - a[1]) - ey * (points[:, 0] - a[0]) > tol
    return points[~inside]


# at 2**1000 the coordinates pass 1e301, where a product of two overflows
@pytest.mark.parametrize("scale", [1.0, 2.0**-500, 2.0**500, 2.0**1000])
@pytest.mark.parametrize("spec", PREFILTER_SPECS)
def test_prefiltered_hull_matches_exact_chain(spec, scale):
    model = w.parse_model(spec)
    for n in (5000, 20000):
        path = w.sample_path(model, n, w.RngStream(41, n).generator()) * scale
        fast = hs.hull_vertices(path)
        exact = hs.geom2d.convex_hull(path).vertices
        assert len(fast) == len(exact)
        assert set(map(tuple, fast.tolist())) == set(map(tuple, exact.tolist()))


@pytest.mark.parametrize("spec", PREFILTER_SPECS)
def test_prefilter_matches_matmul_projection(spec):
    model = w.parse_model(spec)
    for i in range(4):
        path = w.sample_path(model, 6000, w.RngStream(43, i).generator())
        signed = path.copy()
        signed[signed == 0.0] = -0.0  # lattice ties at a signed zero
        for pts in (path, signed, -path, path * 2.0**-500):
            fast, ref = hs._prefilter(pts), _prefilter_by_matmul(pts)
            assert np.array_equal(fast, ref)
            assert np.array_equal(np.signbit(fast), np.signbit(ref))


def test_prefilter_of_one_repeated_point():
    pts = np.zeros((hs._FILTER_MIN_POINTS, 2))
    pts[1::2] = -0.0
    assert np.array_equal(hs.hull_vertices(pts), [[0.0, 0.0]])
    series = hs.functional_series(pts, hs.CheckpointSchedule.explicit([len(pts) - 1]))
    assert (series.L[0], series.A[0], series.r[0]) == (0.0, 0.0, 0.0)


def test_series_matches_batch_through_prefilter():
    path = w.sample_path(w.parse_model("gauss"), 20000, w.RngStream(47, 0).generator())
    sched = hs.CheckpointSchedule.explicit([100, 5000, 12000, 20000])
    a = hs.functional_series(path, sched)
    b = hs.batch_series(path, sched)
    for x, y in ((a.L, b.L), (a.A, b.A), (a.r, b.r)):
        assert np.allclose(x, y, rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_series_monotone_in_n(spec):
    model = w.parse_model(spec)
    sched = hs.CheckpointSchedule.geometric(2, 1.3)
    for i in range(20):
        s = hs.functional_series(w.sample_path(model, 500, w.RngStream(77, i).generator()), sched)
        for arr in (s.L, s.A, s.r):
            assert np.all(arr >= -0.0)
            assert np.all(np.diff(arr) >= -1e-9 * np.maximum(arr[:-1], 1.0))


def test_schedule_out_of_range_in_series():
    with pytest.raises(ValueError, match="checkpoint 5 exceeds path length 1"):
        hs.functional_series(_path([(0, 0), (1, 1)]), hs.CheckpointSchedule.explicit([5]))


# ---------------------------------------------------------------------------
# inradius dichotomy
# ---------------------------------------------------------------------------


def test_inradius_grows_without_drift():
    # recurrent walks sweep around the origin, so r_n drifts upward
    sched = hs.CheckpointSchedule.explicit([1000, 100000])
    for model in (w.LatticeSRW(), w.PearsonRayleigh()):
        lo, hi = [], []
        for i in range(60):
            s = hs.functional_series(w.sample_path(model, 100000, w.RngStream(404, i).generator()), sched)
            lo.append(s.r[0])
            hi.append(s.r[1])
        assert np.median(hi) > np.median(lo)


def test_inradius_stabilizes_with_drift():
    # with drift the hull's back end freezes: r at n=1e4 and n=1e5 nearly agree
    sched = hs.CheckpointSchedule.explicit([10000, 100000])
    model = w.PearsonRayleigh((0.2, 0.0))
    r4, r5 = [], []
    for i in range(400):
        s = hs.functional_series(w.sample_path(model, 100000, w.RngStream(505, i).generator()), sched)
        r4.append(s.r[0])
        r5.append(s.r[1])
    r4, r5 = np.sort(r4), np.sort(r5)
    grid = np.concatenate([r4, r5])
    f4 = np.searchsorted(r4, grid, side="right") / len(r4)
    f5 = np.searchsorted(r5, grid, side="right") / len(r5)
    assert np.abs(f4 - f5).max() < 0.05
