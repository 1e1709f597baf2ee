"""Exception types shared across the package."""


class EbggmError(Exception):
    """Base class for all package-specific errors."""


class NotDecomposableError(EbggmError):
    """Raised when an operation requires a decomposable graph and got none."""


class TooLargeError(EbggmError):
    """Raised when an exhaustive computation is requested above its size cap."""


class DomainError(EbggmError):
    """Raised when a special-function argument is outside its domain."""


class NotSPDError(EbggmError):
    """Raised when a matrix that must be symmetric positive definite is not."""


class DegenerateStatsError(EbggmError):
    """Raised when sufficient statistics make the maximization step ill-posed."""


class NonFiniteError(EbggmError):
    """Raised when an iterative estimate stops being finite, or when data
    leave the floating-point range as they are processed."""


class MismatchedModelError(EbggmError):
    """Raised when a chain log and a reference table describe different models."""


class ChecksumError(EbggmError):
    """Raised when an input file no longer matches the checksum a manifest
    recorded, or can no longer be read."""


class ParseError(EbggmError):
    """Raised on malformed numeric input, with row/column context."""


class ZeroVarianceError(EbggmError):
    """Raised when a column with zero variance cannot be standardized."""


class SingularScatterError(EbggmError):
    """Raised when the empirical scatter matrix is not invertible."""
