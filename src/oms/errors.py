"""Exception hierarchy shared across the package."""


class OmsError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(OmsError):
    """Input data violates a documented precondition (bounds, ordering, shape)."""


class ParameterError(OmsError):
    """A configuration or algorithm parameter is out of its allowed range."""


class ParseError(OmsError):
    """A file could not be decoded; the message carries a byte offset when known."""

