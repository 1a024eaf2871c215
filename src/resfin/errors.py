"""Exception types shared across the toolkit, and the one integer check.

The command line maps these to exit codes: InputError to 1, ResourceError
to 2 (a cap or budget was hit, the answer is inconclusive rather than
wrong), InternalError to 3 (an invariant that must hold was violated).
Every rank, radius, index, order, cap, count and exponent a module accepts
goes through _checked_int, so one place decides what counts as a count.
"""


class InputError(ValueError):
    """Caller handed us something malformed or out of contract."""


class ResourceError(RuntimeError):
    """An explicit cap, budget, or size limit was exceeded."""


class InternalError(AssertionError):
    """An invariant the implementation guarantees failed to hold."""


def _checked_int(value: int, what: str, least: int | None = 1) -> None:
    """Refuse all but an int of at least `least`: 0, 1, or None for any; a bool is no count."""
    if not isinstance(value, int) or isinstance(value, bool) or least is not None and value < least:
        kind = "an" if least is None else "a positive" if least else "a nonnegative"
        raise InputError(f"{what} must be {kind} integer, got {value!r}")
