"""Exception types shared across the package, and the integer check.

Everything derives from :class:`CodabootError`, which is itself a
``ValueError`` so that callers who do not care about the distinction can
catch a single builtin type.  :func:`check_integer` is the one place a
count argument is validated, so that no entry point truncates a float.
"""

from __future__ import annotations

import operator


class CodabootError(ValueError):
    """Base class for all errors raised by this package."""


class ParseError(CodabootError):
    """A text source could not be parsed; the message names the line."""

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class SchemaError(CodabootError):
    """An input is missing required columns or has a malformed header."""


class DomainError(CodabootError):
    """A value lies outside its permitted range."""


class CompletenessError(CodabootError):
    """A year does not cover every age of the grid exactly once."""


class InsufficientDataError(CodabootError):
    """A series is too short for the requested operation."""


class RankError(CodabootError):
    """More components were requested than the data can support."""


class ShapeError(CodabootError):
    """Array shapes or grids do not line up."""


class PoolError(CodabootError):
    """A resampling pool is empty or otherwise unusable."""


class DegenerateInputError(CodabootError):
    """An input carries no usable variation (for example an all-zero vector)."""


class ConfigurationError(CodabootError):
    """A configuration value or combination of values is invalid."""


def check_integer(value, name, error=DomainError, minimum=None):
    """``value`` as an ``int``; a float, even an integral one, raises
    ``error`` instead of being truncated.  Python and numpy integers pass;
    a bool, though an ``int`` to Python, is not a count and raises.
    With a ``minimum``, a smaller value raises ``error`` too."""
    try:
        if isinstance(value, bool):
            raise TypeError
        number = operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None
    if minimum is not None and number < minimum:
        raise error(f"{name} must be at least {minimum}, got {number}")
    return number
