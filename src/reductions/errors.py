"""Exceptions shared across the toolkit."""


class ReductionsError(Exception):
    """Base class for all toolkit errors."""


class PrecisionError(ReductionsError):
    """A series does not determine what was asked of it: a coefficient past
    the bound of a truncated series, or the valuation of a series that is
    zero so far.  Truncated series come only from the series inverses and
    ``truncate``, and no caller retries; ``needed`` is the exponent that
    would have had to be known."""

    def __init__(self, message, needed=None):
        super().__init__(message)
        self.needed = needed


class RankDeficiencyError(ReductionsError):
    """A matrix that must have full column rank does not."""


class IrrationalSpectrumError(ReductionsError):
    """An eigenvalue computation met an irreducible factor of degree > 1.

    All arithmetic is over the rationals; rather than approximating we fail
    loudly."""


class DomainError(ReductionsError):
    """An argument violates a documented precondition."""


class InternalCheckError(ReductionsError):
    """Two independent computations of the same quantity disagree, or a
    machine-checked theorem failed on a concrete instance.  Never caught
    internally: an occurrence falsifies a claim the toolkit is built on."""


class SearchExhaustedError(ReductionsError):
    """A randomized search ran out of retries; rerun with a fresh seed."""
