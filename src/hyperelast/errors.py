"""Exception types shared across the package."""


class HyperelastError(Exception):
    """Base class for all package-specific errors."""


class DomainError(HyperelastError, ValueError):
    """Argument outside the mathematical domain of an operation (ln/pow of a non-positive value, zero exponent, ...)."""


class EmptyTape(HyperelastError, RuntimeError):
    """Reverse sweep requested on a tape with no recorded nodes."""


class ShapeMismatch(HyperelastError, ValueError):
    """Parameter vector or operand shape disagrees with the declared layout."""


class InvertedState(HyperelastError, ArithmeticError):
    """Deformation gradient determinant at or below the inversion floor.

    ``point_index`` is the index of the smallest determinant in the batch
    that raised, when the state was evaluated on a batch of points; the
    message ends with it, so a caller that evaluated a slice of a larger
    batch can shift it to an index of that batch.
    """

    def __init__(self, message, point_index=None):
        super().__init__(message)
        self.point_index = point_index

    def __str__(self):
        message = super().__str__()
        if self.point_index is None:
            return message
        return f"{message} (point index {self.point_index})"


class EvenCount(HyperelastError, ValueError):
    """Simpson rule requires an odd number of nodes per axis."""


class LengthMismatch(HyperelastError, ValueError):
    """Paired arrays differ in length."""


class UnknownPreset(HyperelastError, KeyError):
    """Requested problem preset name is not registered."""


class NonFiniteLoss(HyperelastError, FloatingPointError):
    """A loss term fed to the weighting update is NaN or infinite."""


class LineSearchFailure(HyperelastError, RuntimeError):
    """Line search could not produce an acceptable step."""


class NonFiniteObjective(HyperelastError, FloatingPointError):
    """Objective value is NaN or infinite at the current iterate."""


class NotDescentDirection(HyperelastError, ValueError):
    """Directional derivative at the line-search origin is non-negative."""


class MaxProbesExceeded(LineSearchFailure):
    """Line search exhausted its probe budget."""


class NoBracket(HyperelastError, ValueError):
    """Scalar root finder found no sign change in the search interval."""


class ZeroReference(HyperelastError, ZeroDivisionError):
    """Normalized error requested against a reference field with zero norm."""


class ConfigError(HyperelastError, ValueError):
    """Malformed or unknown configuration key/value."""
