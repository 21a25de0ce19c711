"""hullwalk: convex hulls of planar random walks.

Exact planar hull geometry, increment models with analytic moments,
streaming hull functionals along a path, reproducible parallel Monte Carlo,
and closed-form limit constants with verdicts against simulation.

Every name is reached through its module (``hullwalk.geom2d``,
``hullwalk.walkgen``, ...); importing the package imports them all.
"""

__version__ = "0.1.0"

from . import errors, geom2d, hullstream, limits, montecarlo, quadrature, walkgen
