"""hullwalk: convex hulls of planar random walks.

Exact planar hull geometry, increment models with analytic moments,
streaming hull functionals along a path, reproducible parallel Monte Carlo,
and closed-form limit constants with verdicts against simulation.

The package re-exports the names the demos use; everything else is reached
through its module (``hullwalk.geom2d``, ``hullwalk.walkgen``, ...).
"""

__version__ = "0.1.0"

from . import errors, geom2d, hullstream, limits, montecarlo, quadrature, walkgen
from .geom2d import (
    area,
    cauchy_perimeter,
    convex_hull,
    dist_origin_to_boundary,
    hausdorff,
    perimeter,
    steiner_area,
    support,
)
from .hullstream import CheckpointSchedule, functional_series
from .limits import (
    BROWNIAN,
    assemble_report,
    bnb_expected_area,
    brownian_constant_estimates,
    expected_norm_gaussian,
    gaussian_spacetime_area_exact,
    goldman_bridge_variance,
    limit_constants,
    partial_sum_pi,
    rogers_shepp_second_moment,
    sw_expected_perimeter,
    u0_bounds,
    v0_bounds,
    vplus_bounds,
)
from .montecarlo import clt_test, enumerate_exact, estimate
from .walkgen import RngStream, parse_model, sample_path

__all__ = [
    "__version__",
    # modules
    "errors",
    "geom2d",
    "hullstream",
    "limits",
    "montecarlo",
    "quadrature",
    "walkgen",
    # geometry
    "convex_hull",
    "perimeter",
    "area",
    "support",
    "hausdorff",
    "cauchy_perimeter",
    "dist_origin_to_boundary",
    "steiner_area",
    # walks
    "RngStream",
    "sample_path",
    "parse_model",
    # streaming series
    "CheckpointSchedule",
    "functional_series",
    # Monte Carlo
    "estimate",
    "clt_test",
    "enumerate_exact",
    # limits
    "BROWNIAN",
    "sw_expected_perimeter",
    "bnb_expected_area",
    "gaussian_spacetime_area_exact",
    "partial_sum_pi",
    "expected_norm_gaussian",
    "limit_constants",
    "u0_bounds",
    "v0_bounds",
    "vplus_bounds",
    "rogers_shepp_second_moment",
    "goldman_bridge_variance",
    "brownian_constant_estimates",
    "assemble_report",
]
