"""Shared exception for structural guarantees that fail to hold."""


class VerificationError(RuntimeError):
    """A fact that is mathematically forced by the inputs failed a re-check.

    The library re-verifies conclusions instead of trusting them (for example
    that a swapped crossing really descends, or that a primitivity witness
    satisfies the advertised socle equations).  A raise therefore signals
    either corrupted input data or a genuine counterexample to a structural
    claim, and should never be silently swallowed.
    """


def require(cond: bool, message: str) -> None:
    """Raise VerificationError(message) unless cond holds."""
    if not cond:
        raise VerificationError(message)
