"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: syntax errors in input notation are
usage-level failures, semantic errors mean the input does not describe a
small Seifert fibered space (or a valid slope), and internal errors mean a
computation violated an invariant that should hold for all valid inputs.
"""


class SfsNormError(ValueError):
    """Base class for all errors raised by this package."""


class LensCurveError(SfsNormError):
    """A slope pair violates the (even, coprime) invariants."""


class NotationSyntaxError(SfsNormError):
    """Malformed presentation string.  Carries the 0-based offset."""

    def __init__(self, message, position):
        super().__init__(f"syntax error at position {position}: {message}")
        self.position = position


class PresentationError(SfsNormError):
    """Structurally valid input that is not a small Seifert presentation."""


class NoSurfaceError(PresentationError):
    """Slopes that bound no pseudo-horizontal surface in the presentation."""


class InternalInvariantError(AssertionError):
    """A computation produced a state that valid inputs can never reach."""
