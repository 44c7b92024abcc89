"""Exception types shared across the package."""


class MorganError(Exception):
    """Base class for all errors raised by this package."""


class InvalidSystem(MorganError):
    """State-space data violates a structural requirement (shape, rank, m <= l <= n)."""


class NotControllable(InvalidSystem):
    """The pair (A, B) is not controllable."""


class NotSolvable(MorganError):
    """A numeric system has no solution: an inconsistent feedback-row system,
    or a free-parameter map that cannot place the requested zeros."""


class SingularBstar(MorganError):
    """The decoupling matrix of a square system that passed the rank tests is singular.

    This signals an internal inconsistency and is never silently skipped.
    """


class VerificationFailed(MorganError):
    """The exact closed-loop transfer function is not the expected diagonal."""

    def __init__(self, message, entry=None):
        super().__init__(message)
        self.entry = entry


class TargetDegreeMismatch(MorganError):
    """A target polynomial has the wrong degree for the requested assignment."""
