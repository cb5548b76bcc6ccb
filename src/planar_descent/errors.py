"""Exception hierarchy for the package.

Two buckets matter to callers (and to the CLI exit codes): errors caused
by the caller's data, and violations of invariants the library itself
guarantees.
"""


class PlanarDescentError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(PlanarDescentError):
    """Caller-supplied data violates a precondition or a grammar."""


class InternalError(PlanarDescentError):
    """An invariant the library guarantees failed to hold."""


class TooManyPointsError(InvalidInputError):
    """A configuration read by the CLI has more points than its `--max-n` guard."""
