"""Exception types shared across the package.

Everything derives from :class:`CodabootError`, which is itself a
``ValueError`` so that callers who do not care about the distinction can
catch a single builtin type.
"""

from __future__ import annotations


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
