"""Error taxonomy shared across the package.

Three families map to CLI exit codes: configuration problems (2), data
problems (3), and numerical failures (4). Every concrete error subclasses
one family so callers can branch on the family alone. `typed_value` is the
one type check of JSON values, for config settings and model fields alike.
"""

from __future__ import annotations

import math
import reprlib


class BlockregError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ConfigError(BlockregError):
    """Invalid parameter, flag, or option combination."""

    exit_code = 2


class DataError(BlockregError):
    """Input data missing, malformed, or insufficient."""

    exit_code = 3


class NumericalError(BlockregError):
    """A numerical procedure failed irrecoverably."""

    exit_code = 4


class InvalidConfig(ConfigError):
    """A configuration value is outside its documented range."""


class SeasonalityTooLarge(ConfigError):
    """Differencing lag m does not leave at least one column."""


class WindowTooLarge(ConfigError):
    """Window width w does not leave at least one window position."""


class DimensionMismatch(ConfigError):
    """Shapes of related inputs disagree."""


class LengthMismatch(ConfigError):
    """Paired vectors have different lengths."""


class ParseError(DataError):
    """A file could not be parsed; message includes the location."""


class InconsistentHours(DataError):
    """Duplicate (bs_id, hour) record in an input file, an hour span that
    no station has a record for every hour of, or hours outside
    0..2**63-1 in a corpus to be written."""


class InvalidBsId(DataError):
    """A station id the corpus CSV cannot hold (empty, or with a comma,
    a quote or a line break), or one a corpus to be written repeats."""


class UnknownBs(DataError):
    """A corpus station that an sa model neither fitted nor lists as failed."""


class InfiniteVolume(DataError):
    """An infinite traffic volume, which the corpus CSV cannot hold."""


class EmptyCorpus(DataError):
    """No usable rows remain."""


class UncleanCorpus(DataError):
    """A stage requiring cleaned data received missing or negative entries."""


class InsufficientSamples(DataError):
    """Fewer samples than the operation needs."""


class InsufficientHistory(DataError):
    """Not enough preceding hours to build the requested forecast or fit."""


class Underdetermined(DataError):
    """Fewer samples than trainable parameters."""


class ZeroMeanActual(DataError):
    """NRMSE denominator is zero."""


class SingularSystem(NumericalError):
    """A linear system is singular or numerically rank deficient."""


class Overflow(NumericalError):
    """A computation produced values beyond the floating-point range."""


def typed_value(key: str, value, kind):
    """Return the JSON value ``value`` of ``key`` if it has type ``kind``.

    ``kind`` is ``int`` (a real int, never a bool), ``int | None`` (that or
    null), ``float`` (a finite int or float, returned as a float), ``list``
    (a list of ints), ``list[float]`` (a list of finite numbers, returned as
    floats) or a tuple of the allowed strings. Nothing is coerced across
    types; anything else raises InvalidConfig.
    """
    if isinstance(kind, tuple):
        if isinstance(value, str) and value in kind:
            return value
        expected = "one of " + ", ".join(kind)
    elif kind in (list, list[float]):
        item = int if kind is list else float
        expected = "a list of " + ("integers" if item is int else "finite numbers")
        if isinstance(value, list):
            try:
                return [typed_value(key, v, item) for v in value]
            except InvalidConfig:
                pass
    elif kind is float:
        expected = "a finite number"
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            try:
                number = float(value)
            except OverflowError:  # an int beyond the float range
                number = math.inf
            if math.isfinite(number):
                return number
    else:
        expected = "an integer"
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        if value is None and kind == int | None:
            return None
    raise InvalidConfig(f"{key!r} must be {expected}, got {reprlib.repr(value)}")
