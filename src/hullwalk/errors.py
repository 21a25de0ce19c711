"""Exception types raised by the hullwalk package."""


class HullwalkError(Exception):
    """Base class for all package errors."""


class EmptyInputError(HullwalkError):
    """An operation received an empty point set."""


class NonUnitDirectionError(HullwalkError):
    """A direction vector was not unit length."""


class OriginOutsideError(HullwalkError):
    """The origin is not contained in the polygon."""


class NotPSDError(HullwalkError):
    """A covariance matrix is not symmetric positive semidefinite."""


class ZeroDriftError(HullwalkError):
    """The operation requires a nonzero mean increment."""


class DegenerateDriftError(HullwalkError):
    """Increment fluctuations are orthogonal to the drift (variance along it is zero)."""


class ScheduleOutOfRangeError(HullwalkError):
    """A checkpoint schedule does not fit the path it is applied to."""


class InvalidReplicatesError(HullwalkError):
    """Too few replicates for the requested statistic."""


class TooFewSamplesError(HullwalkError):
    """Too few samples for the requested statistic."""


class SupportTooLargeError(HullwalkError):
    """Exhaustive enumeration would exceed the configured budget."""


class NotFiniteSupportError(HullwalkError):
    """The increment model does not have finite support."""


class InfiniteVarianceError(HullwalkError):
    """The increment model has no finite second moment."""


class MismatchedQuantitiesError(HullwalkError):
    """An estimate refers to a quantity with no matching constant or bound."""


class NoConvergenceError(HullwalkError):
    """An adaptive quadrature failed to reach the requested tolerance."""
