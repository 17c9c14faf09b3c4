"""Exception types shared across the package.

Every error raised on a contract violation derives from IdarrError so
callers (and the CLI exit-code mapping) can catch one base class.
"""


class IdarrError(Exception):
    """Base class for all package errors."""


class DimensionError(IdarrError):
    """Operand shape does not match the operator's domain or codomain."""


class KernelEvaluationError(IdarrError):
    """A kernel function returned a non-finite value on the grid."""


class DegenerateColumnError(IdarrError):
    """An operator column is identically zero, so no exploration weight exists."""

    def __init__(self, index, count=1):
        self.index = int(index)
        self.count = int(count)
        msg = f"column {self.index} has zero absolute sum"
        if count > 1:
            msg += f" ({count} such columns in total)"
        super().__init__(msg)


class GeometryError(IdarrError):
    """Invalid weighted geometry (non-positive weights, weights not normalized)."""


class TrivialDataError(IdarrError):
    """The data vector is identically zero; nothing to solve."""


class NumericalBreakdownError(IdarrError):
    """A quantity came out non-finite, or negative beyond roundoff where it must not be."""


class StateError(IdarrError):
    """Operation invoked on an object in the wrong state (e.g. after termination)."""


class IoError(IdarrError):
    """Malformed or unreadable data file (image, kernel grid, vector, descriptor)."""


class UsageError(IdarrError):
    """Invalid command-line arguments or configuration values."""
