"""Exception types shared across the engine."""


class JetforgeError(Exception):
    """Base class for all engine errors."""


class DimensionMismatch(JetforgeError):
    """An argument's base dimension does not match its partner's."""


class OrderTooHigh(JetforgeError):
    """Requested a projection to an order above the jet's own order."""


class BadDirection(JetforgeError):
    """Direction index outside 1..m."""


class NotAUnit(JetforgeError):
    """Polynomial vanishes at the expansion point, so it has no local inverse."""


class DuplicatePoints(JetforgeError):
    """Interpolation or gluing points must be pairwise distinct."""


class UnsolvableError(JetforgeError):
    """The exact linear system for the requested jet has no solution."""

    def __init__(self, message, point=None, pivots=()):
        super().__init__(message)
        self.point = point
        self.pivots = tuple(pivots)


class ParseError(JetforgeError):
    """Syntax error in the operator/polynomial DSL, with source location."""

    def __init__(self, message, line=1, column=1, expected=()):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column
        self.expected = tuple(expected)
