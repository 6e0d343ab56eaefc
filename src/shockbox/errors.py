"""Exception types shared across the package."""


class ShockboxError(Exception):
    """Base class for every error raised by this package."""


class InvalidParameterError(ShockboxError, ValueError):
    """A distribution/generator parameter is malformed (bad rate, mass, knot order, ...)."""


class InvalidRangeError(ShockboxError, ValueError):
    """A discretization or grid range is empty, reversed, or non-finite."""


class UnsupportedSegmentPairError(ShockboxError):
    """Two analytic segments cannot be combined inside the closed segment family.

    Raised by the exact engine when a pointwise product/comixture/blend of two
    non-constant analytic pieces would leave the representable family.
    Discretizing either operand is the supported fallback.
    """


class OrderViolationError(ShockboxError):
    """A pointwise order requirement failed; carries a witness abscissa."""

    def __init__(self, message: str, witness: float | None = None):
        super().__init__(message)
        self.witness = witness


class NonProperInputError(ShockboxError):
    """A construction needs a proper (mass-1) distribution and did not get one."""


class MassSumError(ShockboxError, ValueError):
    """Atom masses of a discrete law do not sum to 1 within tolerance."""


class ConfigError(ShockboxError):
    """A scenario/CLI configuration file is malformed."""
