"""Exception hierarchy shared across the package, and the one rule each for
numeric fields, arrays and JSON kinds."""

import numpy as np


class OmsError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(OmsError):
    """Input data violates a documented precondition (bounds, ordering, shape)."""


class ParameterError(OmsError):
    """A configuration or algorithm parameter is out of its allowed range."""


class ParseError(OmsError):
    """A file could not be decoded; the message carries a byte offset when known."""


def _check_number(error: type, name: str, value, integral: bool, lo, hi, open: bool = False):
    """`value` unchanged if it is a number (an integer if `integral`) in
    [lo, hi], or in (lo, hi) if `open`; else raises `error`. Bool is never a
    number, numpy scalars are, and NaN lies in no interval."""
    kinds = (int, np.integer) if integral else (int, float, np.integer, np.floating)
    if (isinstance(value, bool) or not isinstance(value, kinds)
            or not (lo < value < hi if open else lo <= value <= hi)):
        raise error(f"{name} must be {'an integer' if integral else 'a number'} in "
                    f"{'(' if open else '['}{lo}, {hi}{')' if open else ']'}, got {value!r}")
    return value


def _array(error: type, what: str, value, ndim: int | None = None) -> np.ndarray:
    """np.asarray(value), once it is an array (a ragged nested list is not)
    with `ndim` dimensions if given; else raises `error`."""
    try:
        value = np.asarray(value)
    except ValueError as exc:  # a ragged nested list
        raise error(f"{what} is not an array: {exc}") from None
    if ndim is not None and value.ndim != ndim:
        raise error(f"{what} must be {ndim}D, got shape {value.shape}")
    return value


def _check_type(name: str, value, kind: type):
    """`value` unchanged if it is a `kind`; else raises TypeError, because a
    foreign object where a package type belongs is a programming error."""
    if not isinstance(value, kind):
        article = "an" if kind.__name__[0] in "AEIOU" else "a"
        raise TypeError(f"{name} must be {article} {kind.__name__}, got {type(value).__name__}")
    return value


def _json(what: str, value, kind: type = dict, error: type = ParseError):
    """`value` unchanged if it is a JSON object, array, string or boolean as
    `kind` is dict, list, str or bool; else raises `error`."""
    if not isinstance(value, kind):
        name = {dict: "a JSON object", list: "a JSON array", str: "a string", bool: "a boolean"}
        raise error(f"{what} must be {name[kind]}, got {type(value).__name__}")
    return value
