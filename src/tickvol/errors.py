"""Exception hierarchy for tickvol.

Every error raised on purpose by this package derives from TickvolError,
so callers can catch the whole family with one clause.
"""


class TickvolError(Exception):
    """Base class for all tickvol errors."""


class ValidationError(TickvolError):
    """A raw trade violates the positivity/finiteness invariants.

    The message names the offending input row (0-based, in input order).
    """


class EmptyWindowError(TickvolError):
    """An operation that needs at least one trade got an empty window."""


class DegreeOutOfRangeError(TickvolError):
    """Requested moment degree is below 1 or above the configured cap."""


class LagTooLargeError(TickvolError):
    """Returns lag is at least the series length; no record can be built."""


class DegenerateDenominatorError(TickvolError):
    """Closed-form volatility denominator is non-positive.

    Mathematically impossible for stats built from a non-empty window;
    signals corrupted or hand-built stats, not a legal input.
    """


class UnsupportedWindowOverlapError(TickvolError):
    """Multi-time moment requested for distinct but overlapping windows.

    Only identical times (diagonal) and pairwise-disjoint windows have a
    well-defined combination set; anything in between is refused loudly.
    """


class TruncationOrderOutOfRangeError(TickvolError):
    """Characteristic-functional truncation order exceeds the degree cap."""


class NonFiniteError(TickvolError):
    """A sum, moment, term or nanosecond timestamp is not finite in doubles:
    it overflows the double range (inf or nan), or a divisor underflows to 0."""


class ParseError(TickvolError):
    """A trade file failed to parse.

    Carries the 1-based line number of the offending line.
    """

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


class ConfigError(TickvolError):
    """Invalid run configuration (bad flag value, bad schema, ...)."""
