"""Exception hierarchy.

Every error the package raises on purpose derives from FlagboundError, so
callers can catch one type.  The CLI maps these onto exit codes: validation
problems exit 1, violated identities exit 2.  An undecided hypothesis
verdict is reported, not raised; the CLI gives it exit code 3.
"""


class FlagboundError(Exception):
    """Base class for all package errors."""


class ValidationError(FlagboundError, ValueError):
    """An argument or data structure violates a documented precondition."""


class InconsistencyError(ValidationError):
    """Input data is internally contradictory.

    Raised when a delta sequence claims more sections than the point
    deficiencies allow, i.e. the sectional genus would be negative.
    """


class IdentityViolationError(FlagboundError):
    """Two independently computed routes disagree.

    This must never fire on valid inputs; if it does, the build itself is
    defective and the offending witness is in the message.
    """

