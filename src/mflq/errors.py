"""Exception hierarchy for solver failures.

Every numerical or structural failure raised by this package derives from
:class:`MflqError`, so callers can catch one type.  Plain ``ValueError`` is
reserved for malformed arguments (wrong shapes, non-finite entries).
"""


class MflqError(Exception):
    """Base class for all solver failures."""


class ImaginaryAxisEigenvalue(MflqError):
    """A matrix that must admit a stable/antistable splitting has an
    eigenvalue on (or numerically too close to) the imaginary axis."""

    def __init__(self, message, eigenvalues=()):
        super().__init__(message)
        self.eigenvalues = list(eigenvalues)


class SchurConvergenceFailure(MflqError):
    """QR iteration or a diagonal-block swap failed to converge (``dgees`` ``info``)."""


class SingularMatrix(MflqError):
    """A linear system's condition estimate exceeds ``linalg.CONDITION_LIMIT``."""


class GraphSubspaceFailure(MflqError):
    """The stable invariant subspace is not (numerically) a graph subspace:
    the leading block of the basis matrix is singular or near-singular, or
    the graph fails certification."""


class StabilizabilityFailure(MflqError):
    """A required stabilizability test (PBH) failed."""


class NonPositiveR(MflqError):
    """The control weight matrix is not symmetric positive definite."""


class DichotomySplitFailure(MflqError):
    """A 2n-by-2n matrix does not split n/n across the imaginary axis."""


class UnstableGenerator(MflqError):
    """A decay integral was requested for a generator that is not stable."""


class ProblemFileError(MflqError):
    """A problem file is missing, malformed, or dimensionally inconsistent."""
