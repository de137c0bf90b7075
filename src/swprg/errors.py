"""Exception types shared across the package."""


class SwprgError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(SwprgError):
    """An input has the wrong length or block structure."""


class ParameterError(SwprgError):
    """A parameter is outside its valid range."""


class ConfigurationError(SwprgError):
    """A requested construction is infeasible at the given parameters."""


class CapExceeded(SwprgError):
    """An exhaustive enumeration would exceed the configured cap.

    ``required_bits`` is the enumeration budget (in bits) that would be
    needed to run the refused computation.
    """

    def __init__(self, message: str, required_bits: int):
        super().__init__(message)
        self.required_bits = required_bits


# Every enumeration of more than 2**DEFAULT_CAP_BITS seeds, inputs or family
# members is refused with CapExceeded unless the caller passes a larger cap.
DEFAULT_CAP_BITS = 24
