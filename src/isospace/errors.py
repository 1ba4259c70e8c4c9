"""Shared exceptions and the combinatorial guard.

Every potentially exponential enumeration in this library is metered by a
Guard.  Exceeding the configured budget raises GuardExceeded; nothing is
ever truncated silently.
"""

from __future__ import annotations

DEFAULT_GUARD = 10**7


class GuardExceeded(RuntimeError):
    """An enumeration exceeded its configured iteration budget."""


class VerificationError(RuntimeError):
    """A constructed witness failed its re-verification check."""


class DecompositionError(VerificationError):
    """Parts given as an isotropic decomposition are not one
    (altspace.validate_decomposition)."""


class ParseError(ValueError):
    """Malformed input file; message carries the location."""


class Guard:
    """Iteration budget shared across one top-level operation."""

    __slots__ = ("limit", "used")

    def __init__(self, limit: int = DEFAULT_GUARD):
        self.limit = int(limit)
        self.used = 0

    def tick(self, k: int = 1) -> None:
        self.used += k
        if self.used > self.limit:
            raise GuardExceeded(
                f"combinatorial guard exceeded ({self.used} > {self.limit} iterations)"
            )

    def require(self, estimate: int, what: str = "iterations") -> None:
        """Fail fast when a known work estimate, in units of what, already
        exceeds the budget."""
        if estimate > self.limit - self.used:
            # past 4,300 digits int-to-str raises ValueError, so a huge
            # estimate is shown by its bit length
            shown = (estimate if estimate.bit_length() <= 64
                     else f"at least 2^{estimate.bit_length() - 1}")
            raise GuardExceeded(
                f"combinatorial guard exceeded (estimated {shown} {what}, "
                f"{self.limit - self.used} remaining of {self.limit})"
            )


def as_guard(guard) -> Guard:
    """Accept a Guard, an int limit, or None (fresh default guard)."""
    if guard is None:
        return Guard()
    if isinstance(guard, Guard):
        return guard
    return Guard(int(guard))
