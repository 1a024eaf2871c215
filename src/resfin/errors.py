"""Exception types shared across the toolkit, and the one integer check.

The command line maps these to exit codes: InputError to 1, ResourceError
to 2 (a cap or budget was hit, the answer is inconclusive rather than
wrong), InternalError to 3 (an invariant that must hold was violated).
Every rank, radius, index, order, cap and count a module accepts goes
through _checked_int, so one place decides what counts as a count.
"""


class InputError(ValueError):
    """Caller handed us something malformed or out of contract."""


class ResourceError(RuntimeError):
    """An explicit cap, budget, or size limit was exceeded."""


class InternalError(AssertionError):
    """An invariant the implementation guarantees failed to hold."""


def _checked_int(value: int, what: str, least: int = 1) -> None:
    """Refuse all but an int of at least `least`, 0 or 1; a bool is no count."""
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        kind = "positive" if least else "nonnegative"
        raise InputError(f"{what} must be a {kind} integer, got {value!r}")
