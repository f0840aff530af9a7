"""Exception hierarchy shared by all spinclust modules.

Every data/contract violation raises a subclass of :class:`SpinclustError`
so the CLI can map library failures to exit code 1 while genuine bugs
(ValueError, IndexError, ...) still surface as tracebacks.
"""

from contextlib import contextmanager


class SpinclustError(Exception):
    """Base class for all toolkit-level errors."""


class ParseError(SpinclustError):
    """Malformed input file (ragged rows, non-numeric cells, bad JSON)."""


class DomainError(SpinclustError):
    """Input violates a documented precondition (e.g. T <= 0, bad price)."""


class InsufficientOverlapError(DomainError):
    """A pair of rows shares fewer jointly observed columns than required."""


class DegeneratePairError(DomainError):
    """A pair of rows has zero variance on its overlap window."""


class DegenerateInputError(DomainError):
    """Input collapses mid-computation (zero-variance row/column, all-zero distances)."""


class DegenerateSpectrumError(DomainError):
    """No eigenvalue falls outside the noise band; nothing to reconstruct from."""


class DegenerateClusterError(DomainError):
    """A cluster has an intra-cluster sum that makes the objective undefined."""


class InsufficientGridError(DomainError):
    """Too few temperature grid points for the requested analysis."""


@contextmanager
def prefixed(label):
    """Re-raise a SpinclustError from the block as its own type, led by ``label: ``."""
    try:
        yield
    except SpinclustError as exc:
        raise type(exc)(f"{label}: {exc}") from None
