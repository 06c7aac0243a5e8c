"""Exception taxonomy shared across the package.

Two families, one per CLI exit code: FormatError is an integrity failure,
a file read back that is corrupt, truncated or made against another base
(exit 3); every other SuperSubError is a user, config or API mistake
(exit 2).
"""


class SuperSubError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(SuperSubError):
    """Invalid argument value (negative sigma, zero epsilon, bad spec...)."""


class ValidationError(SuperSubError):
    """Structural violation in a manifest or config document."""


class ContractError(SuperSubError):
    """Caller broke an API precondition: operand or batch shapes that do not
    match, networks that do not fit the requested delta mode, a mismatched
    cache, a wrong head width..."""


class FormatError(SuperSubError):
    """Corrupt or truncated container file, or a delta pack computed against
    another base network; offset, when known, points at the failing byte."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset
