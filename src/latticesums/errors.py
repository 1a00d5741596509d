"""Exception types shared across the package."""


class LatticeSumError(Exception):
    """Base class for all package errors."""


class ExcludedPoint(LatticeSumError):
    """The evaluation point lies on an excluded translated hyperplane.

    Carries the offending functional id and a description of the hyperplane
    so callers can report the precise non-convergence locus.
    """

    def __init__(self, message, functional=None, hyperplane=None):
        super().__init__(message)
        self.functional = functional
        self.hyperplane = hyperplane


class NonDivisible(LatticeSumError):
    """A sum that must be holomorphic is not: an exact division of a
    truncated series by a linear form left a residue, or the summands of a
    coefficient do not cancel at a negative exponent.

    In exact mode this signals a bug or an arrangement violating the
    holomorphy of the assembled generating function.  ``residual`` holds the
    offending terms.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class NotSimple(LatticeSumError):
    """A polytope expected to be simple has a vertex on too many hyperplanes."""


class RankDrop(LatticeSumError):
    """A sub-arrangement no longer spans the ambient space."""


class NotInvertible(LatticeSumError):
    """An exact scalar that is not a pi-monomial was inverted; only
    c * pi^k with nonzero c in Q(zeta_N) has an inverse in the exact
    ring."""


class NonFinite(LatticeSumError):
    """A numeric scalar read through its integer mantissas is infinite or
    not a number: mpmath stores both with mantissa 0, so that an unguarded
    reader would count them as zero."""
