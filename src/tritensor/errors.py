"""Exception types shared across the package."""

__all__ = [
    "TensorError", "NotOrthogonal", "NotSymmetric", "NotRightSymmetric",
    "NotPartiallySymmetric", "SingularTensor", "UnsupportedClass", "Unrepresentable",
    "NoConvergence", "Uncertified",
]


class TensorError(ValueError):
    """Base class for all domain errors raised by this package."""


class NotOrthogonal(TensorError):
    """A change-of-basis matrix failed the orthogonality check."""


class NotSymmetric(TensorError):
    """A matrix or tensor that must be symmetric is not."""


class NotRightSymmetric(TensorError):
    """An operation requiring right-side symmetry got an asymmetric tensor."""


class NotPartiallySymmetric(TensorError):
    """The tensor lacks the partial symmetry required for a decomposition."""


class SingularTensor(TensorError):
    """The tensor is singular, so no L-inverse exists."""


class UnsupportedClass(TensorError):
    """Unknown symmetry-class tag passed to a fixture constructor."""


class Unrepresentable(TensorError):
    """A nonzero result lies outside the normal float64 range."""


class NoConvergence(RuntimeError):
    """An eigenpair taken from another maximum did not polish to its residual bound."""


class Uncertified(RuntimeError):
    """An enumeration of eigenpairs could not certify that it found them all."""
