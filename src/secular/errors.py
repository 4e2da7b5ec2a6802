"""Shared exception types."""


class SecularError(Exception):
    """Base class for all library errors."""


class DomainError(SecularError):
    """Input outside an operation's documented domain."""


class NonConvergenceError(SecularError):
    """Iterative procedure exhausted its budget.

    Carries the best iterate found so far in ``best``.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class SingularityError(SecularError):
    """Trajectory approached a singularity (collision or blow-up).

    In a flight of stacked states, ``members`` holds the stack positions
    of the states at fault when known, and ``reasons`` one message each.
    """

    def __init__(self, message, t=None, members=(), reasons=()):
        super().__init__(message)
        self.t = t
        self.members = members
        self.reasons = reasons


class UnsupportedFlavorError(SecularError):
    """Operation not available for the matrix flavor supplied."""


class InternalInconsistencyError(SecularError):
    """An internal invariant failed; indicates a bug, not bad input."""
