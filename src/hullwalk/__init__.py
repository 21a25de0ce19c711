"""hullwalk: convex hulls of planar random walks.

Exact planar hull geometry, increment models with analytic moments,
streaming hull functionals along a path, reproducible parallel Monte Carlo,
and closed-form limit constants with verdicts against simulation.

Every name is reached through its module (``hullwalk.geom2d``,
``hullwalk.walkgen``, ...); importing the package imports them all.
Every refused input raises ValueError and every numeric failure (an
overflow, or a NaN or infinity in a result) raises FloatingPointError; the
package defines no exception type of its own.
"""

__version__ = "0.1.0"

from . import geom2d, hullstream, limits, montecarlo, quadrature, walkgen
