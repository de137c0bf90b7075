"""Exception types shared across the package, and the config readers that raise them."""

from fractions import Fraction


class SwprgError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(SwprgError):
    """An input has the wrong length or block structure."""


class ParameterError(SwprgError):
    """A parameter is outside its valid range."""


class ConfigurationError(SwprgError):
    """A requested construction is infeasible at the given parameters."""


class CapExceeded(SwprgError):
    """An exhaustive enumeration would exceed the cap, ``DEFAULT_CAP_BITS``.

    ``required_bits`` is the enumeration budget (in bits) that would be
    needed to run the refused computation.
    """

    def __init__(self, message: str, required_bits: int):
        super().__init__(message)
        self.required_bits = required_bits


# The one enumeration cap: every enumeration of more than 2**DEFAULT_CAP_BITS
# seeds, coin matrices or family members is refused with CapExceeded.
DEFAULT_CAP_BITS = 24


def read_fraction(value, name: str, rule: str = "an int or a fraction string") -> Fraction:
    """``value``, the config entry ``name``, as a Fraction: a Fraction, an int (a bool
    is not) or a string such as "1/10".  Anything else, a float too, whose binary
    value is not the decimal it spells, is refused: ``name`` must be ``rule``."""
    if type(value) is not bool and isinstance(value, (int, str, Fraction)):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise ParameterError(f"{name} must be {rule}: {value!r}")


def refuse_unknown_keys(data: dict, known, what: str) -> None:
    """Refuse a key of ``data`` not in ``known``, so a misspelt field is not read as left out."""
    unknown = sorted(data.keys() - set(known))
    if unknown:
        raise ParameterError(f"{what} has no field {unknown[0]!r}")
