"""The library's errors, one class per thing a caller does with them.

InvalidParameters is an argument the call does not accept; the CLI exits
2 on it. CheckFailed is an exact check on the program's own values that
failed, a bug; the CLI exits 1 on it. Neither is an `assert`, so
`python -O` strips no check.
"""


class IKDegError(Exception):
    """Base class for all library errors."""


class InvalidParameters(IKDegError):
    """An argument the call does not accept, or a count over
    charsum.COUNT_LIMIT additions."""


class CheckFailed(IKDegError):
    """An exact check on the program's own values failed (a bug)."""
