"""Constructors for the arrangement families shipped as fixtures."""

from __future__ import annotations

from fractions import Fraction

from .lattice import Arrangement, make_functional


def hurwitz_a1(alpha) -> Arrangement:
    """Rank-one family with terms 1/((-m+a)^k1 m^k2 (m+a)^k3)."""
    alpha = Fraction(alpha)
    if alpha == 0:
        raise ValueError("the shift parameter must be nonzero")
    return Arrangement(1, [
        make_functional((-1,), alpha),
        make_functional((1,), 0),
        make_functional((1,), alpha),
    ])


def hurwitz_a2(alpha) -> Arrangement:
    """Rank-two, nine-functional family: the three direction pairs
    (1,0), (0,1), (1,1) each carrying the (-.+a, ., .+a) pattern."""
    alpha = Fraction(alpha)
    if alpha == 0:
        raise ValueError("the shift parameter must be nonzero")
    fs = []
    for d in [(1, 0), (0, 1), (1, 1)]:
        nd = tuple(-x for x in d)
        fs.append(make_functional(nd, alpha))
        fs.append(make_functional(d, 0))
        fs.append(make_functional(d, alpha))
    return Arrangement(2, fs)


def triangle(alpha, beta, gamma) -> Arrangement:
    """Directions (1,0), (0,1), (1,1) with arbitrary rational constants."""
    return Arrangement(2, [
        make_functional((1, 0), Fraction(alpha)),
        make_functional((0, 1), Fraction(beta)),
        make_functional((1, 1), Fraction(gamma)),
    ])


def a2_directions() -> Arrangement:
    """The all-constants-zero triangle: directions (1,0), (0,1), (1,1)."""
    return triangle(0, 0, 0)


# The positive coroots of each root system as coefficient vectors on the
# simple coroots, which are their pairings with the fundamental weights;
# the simple root alpha_1 is the short one in B2 and G2.
_POSITIVE_COROOTS = {
    "A2": ((1, 0), (0, 1), (1, 1)),
    "B2": ((1, 0), (0, 1), (1, 1), (1, 2)),
    "G2": ((1, 0), (0, 1), (1, 1), (1, 2), (1, 3), (2, 3)),
    "A3": ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1),
           (1, 1, 1)),
    # B3's coroots are the roots of C3, and C3's those of B3
    "B3": ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1),
           (0, 2, 1), (1, 1, 1), (1, 2, 1), (2, 2, 1)),
    "C3": ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1),
           (1, 1, 1), (0, 1, 2), (1, 1, 2), (1, 2, 2)),
    # the sums e_i + ... + e_j, i <= j
    "A4": tuple(tuple(int(i <= m <= j) for m in range(4))
                for i in range(4) for j in range(i, 4)),
}


def root_system(name: str) -> Arrangement:
    """The arrangement of the zeta function of the root system `name`
    ("A2", "B2", "G2", "A3", "B3", "C3" or "A4"): one functional per
    positive coroot, its direction the coroot in the basis of fundamental
    weights, constant 0.  Any other name raises ValueError."""
    if name not in _POSITIVE_COROOTS:
        raise ValueError(f"unknown root system {name!r}: expected one of "
                         f"{', '.join(_POSITIVE_COROOTS)}")
    coroots = _POSITIVE_COROOTS[name]
    return Arrangement(len(coroots[0]),
                       [make_functional(d, 0) for d in coroots])
