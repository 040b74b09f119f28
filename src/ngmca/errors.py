"""Exception types shared across the package."""


class NgmcaError(Exception):
    """Base class for all package errors."""


class NonConvergenceError(NgmcaError):
    """An iterative routine exceeded its iteration cap without converging."""


class ShapeMismatchError(NgmcaError):
    """Operand shapes do not conform."""


class NonFiniteError(NgmcaError):
    """Iterates contain NaN/Inf, usually a misconfigured step size."""


class ZeroSignalError(NgmcaError):
    """Cannot scale noise against an all-zero signal."""


class PeakOutOfRangeError(NgmcaError):
    """A peak position falls outside the sample grid."""


class DegenerateSpanError(NgmcaError):
    """Reference sources are rank-deficient; projections are ill-defined."""


class SingularMatrixError(NgmcaError):
    """Matrix does not have full column rank."""


class UnknownAxisError(NgmcaError):
    """Requested plot axis is not a swept parameter."""


class RankCollapseWarning(UserWarning):
    """A source stayed dead after its reinitialization budget was exhausted."""


class NonConvergenceWarning(UserWarning):
    """An iterative phase stopped at its iteration cap before settling."""
