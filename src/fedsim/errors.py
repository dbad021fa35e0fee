"""Exception types shared across the simulator."""

from __future__ import annotations


class FedsimError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(FedsimError, ValueError):
    """An argument value violates a documented precondition."""


class ShapeError(FedsimError, ValueError):
    """Array dimensions are inconsistent with the model or each other."""


class NumericError(FedsimError, ArithmeticError):
    """A computation produced or received non-finite values."""


class ConfigError(FedsimError, ValueError):
    """An experiment or federation configuration is invalid."""


class ProtocolError(FedsimError):
    """Client updates or aggregation inputs violate the federation protocol."""


class FormatError(FedsimError):
    """A serialized file is malformed.

    `offset` is the byte offset at which parsing failed, when known.
    """

    def __init__(self, message: str, offset: int | None = None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
