"""Brute-force partial sums of the defining lattice series.

This module is the ground truth the closed-form evaluators are checked
against, so it stays definitionally transparent: sum the terms
e^{2 pi i <y, v>} / prod f(v)^{k_f} over the integer points of an expanding
symmetric box, with the zero-weight functionals turned into exact linear
constraints on the summation sublattice and a (-1) sign each.  No
acceleration or resummation tricks.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterator, List, Sequence, Tuple

import numpy as np
from mpmath.ctx_mp import MPContext

from . import intlinalg
from .genfun import WeightVector
from .lattice import Arrangement, GaussianRational

@dataclass(frozen=True)
class TruncationWindow:
    """The coordinate box |v_j| <= N."""

    N: int

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("window size must be >= 1")


def _zero_constraints(arr: Arrangement, k: WeightVector):
    """Rows/rhs of the integral system f(v) = 0 for zero-weight functionals.

    Returns None when the system has no integer solutions (e.g. a
    non-integral constant), which empties the sum.
    """
    rows, rhs = [], []
    for i in k.zero_set():
        f = arr.functionals[i]
        c = f.constant
        if isinstance(c, Fraction):
            if c.denominator != 1:
                return None
            rhs.append(-int(c))
        elif isinstance(c, GaussianRational):
            if c.im != 0 or c.re.denominator != 1:
                return None
            rhs.append(-int(c.re))
        else:
            # a float constant is read at its binary value
            if c.imag != 0 or not float(c.real).is_integer():
                warnings.warn("non-rational constant in a zero-weight "
                              "functional: the constrained sublattice is "
                              "empty by fiat")
                return None
            rhs.append(-int(c.real))
        rows.append(list(f.direction))
    return rows, rhs


_FLOAT = "float"


def _vanishing_target(f):
    """When f(v) = <d, v> + c vanishes on the lattice: for a rational c,
    exactly when c is an integer and <d, v> == -c, so the integer -c, or
    None when c is not an integer; None for a Gaussian c with im != 0;
    ``_FLOAT`` for a float c, read at its binary value, since a float sum
    of an integer and c is zero exactly when the exact sum is."""
    c = f.constant
    if isinstance(c, GaussianRational):
        if c.im != 0:
            return None
        c = c.re
    if not isinstance(c, Fraction):
        return _FLOAT
    return -c.numerator if c.denominator == 1 else None


def constrained_points(arr: Arrangement, k: WeightVector,
                       window: TruncationWindow) -> Iterator[Tuple[int, ...]]:
    """Integer points of the window with f(v) = 0 on the zero-weight set and
    f(v) != 0 on the positive-weight set, in lexicographic order."""
    k = k if isinstance(k, WeightVector) else WeightVector.make(k)
    constraints = _zero_constraints(arr, k)
    if constraints is None:
        return
    rows, rhs = constraints
    bound = window.N
    integral, floating = [], []
    for i in k.positive_set():
        f = arr.functionals[i]
        target = _vanishing_target(f)
        if target is _FLOAT:
            floating.append(f)
        elif target is not None:
            integral.append((f.direction, target))

    def admissible(v, inside=False) -> bool:
        if not (inside or all(abs(x) <= bound for x in v)):
            return False
        for direction, target in integral:
            if sum(map(mul, direction, v)) == target:
                return False
        for f in floating:
            if f.evaluate_int(v) == 0:
                return False
        return True

    if not rows:
        # the range below is the window itself
        for v in itertools.product(range(-bound, bound + 1),
                                   repeat=arr.rank):
            if admissible(v, True):
                yield v
        return
    solved = intlinalg.solve_integer(rows, rhs)
    if solved is None:
        return
    x0, kernel = solved
    if not kernel:
        if admissible(tuple(x0)):
            yield tuple(x0)
        return
    # bound the kernel coefficients from an invertible coordinate subset
    d = len(kernel)
    kmat = [[kern[j] for kern in kernel] for j in range(arr.rank)]  # r x d
    rowsel = None
    for combo in itertools.combinations(range(arr.rank), d):
        sub = [kmat[j] for j in combo]
        if intlinalg.det(sub) != 0:
            rowsel = (combo, intlinalg.mat_inverse(sub))
            break
    combo, inv = rowsel
    bounds = []
    for i in range(d):
        s = sum(abs(inv[i][t]) * (bound + abs(x0[combo[t]]))
                for t in range(d))
        bounds.append(int(math.ceil(float(s))) + 1)
    pts = []
    for coeffs in itertools.product(*[range(-b, b + 1) for b in bounds]):
        v = tuple(x0[j] + sum(coeffs[i] * kernel[i][j] for i in range(d))
                  for j in range(arr.rank))
        if admissible(v):
            pts.append(v)
    yield from sorted(pts)


def _weight_vector(arr: Arrangement, k, y: Sequence) -> WeightVector:
    """k as a WeightVector, after checking k and y against arr."""
    k = k if isinstance(k, WeightVector) else WeightVector.make(k)
    if len(k.weights) != arr.size:
        raise ValueError("one weight per functional required")
    if len(y) != arr.rank:
        raise ValueError("y must have one entry per dimension")
    return k


def truncated_sum(arr: Arrangement, k, y: Sequence,
                  window: TruncationWindow, precision: int = 53):
    """The raw box-truncated sum Z(N), with the (-1)^(#zero-weight) sign.

    Raises ValueError unless k has one weight per functional and y one
    entry per dimension.  One of three paths runs, chosen from the data:

    - rank 2 without zero weights at precision <= 53: numpy float64, one
      row of the box at a time, the row sums added with ``math.fsum``;
    - otherwise, when every positive-weight constant is a real rational
      and y is rational: exact integers.  With D the common denominator
      of the constants, g_f = D f is an integer on the lattice, and each
      point adds round(2^P D^K / prod g_f(v)^{k_f}), K = sum k_f, to the
      bucket of its phase e^{2 pi i <y, v>}, a root of unity of order
      den(y).  The buckets meet their roots once, at the end.  With
      w = max(precision, 53) + 24 and P = w + 1 +
      bit_length((2 * bound + 1)^rank), the n points summed are off by at
      most n 2^-(P+1) <= 2^-(w+2) in any order, and the combination adds
      under 2^-(P+4);
    - otherwise mpmath, point by point at w bits with Neumaier
      compensation, every rational part of a constant rounded once.

    Measured on a 2-CPU x86-64 box with Python 3.11: ``a1_alpha1``,
    k = (2,2,2), y = 0, N = 2000 takes 0.013 s on the integer path and
    0.35 s point by point; the windows N = 25, 50, 100 and 200 of
    ``triangle_rational`` at y = (1/7, 2/11) take 0.75 s on the integer
    path at precision 128 and 0.04 s in float64, 4.6e-13 off at N = 200.
    """
    k = _weight_vector(arr, k, y)
    sign = (-1) ** len(k.zero_set())
    if not k.zero_set() and precision <= 53 and arr.rank == 2:
        return sign * _sum_vectorized(arr, k, y, window)
    try:
        constants = [arr.functionals[i].rational_constant()
                     for i in k.positive_set()]
    except ValueError:
        constants = None
    if constants is not None and all(isinstance(v, (int, Fraction))
                                     for v in y):
        return sign * _sum_integer(arr, k, [Fraction(v) for v in y], window,
                                   precision, constants)
    return sign * _sum_pointwise(arr, k, y, window, precision)


def _sum_integer(arr, k, y, window, precision, constants):
    """The integer path of truncated_sum, without its sign; `constants`
    are the positive-weight constants as Fractions."""
    D = math.lcm(*(c.denominator for c in constants))
    scaled = [(tuple(D * d for d in arr.functionals[i].direction),
               int(D * c), k.weights[i])
              for i, c in zip(k.positive_set(), constants)]
    q = math.lcm(*(v.denominator for v in y))
    ynum = [int(q * v) for v in y]
    work = max(precision, 53) + 24
    points = (2 * window.N + 1) ** arr.rank
    P = work + points.bit_length() + 1
    twice = D ** sum(k.weights) << (P + 1)
    buckets = [0] * q
    for v in constrained_points(arr, k, window):
        den = 1
        for direction, c, kf in scaled:
            den *= (sum(map(mul, direction, v)) + c) ** kf
        # floor(2^P D^K / den + 1/2), the nearest integer for either sign
        buckets[sum(map(mul, ynum, v)) % q] += (twice + den) // (2 * den)
    ctx = MPContext()
    # every bucket converts exactly, and the roots of unity and the sum
    # stay within 2^-(P+4) of the exact combination
    ctx.prec = max(abs(b) for b in buckets).bit_length() \
        + 2 * q.bit_length() + 8
    total = ctx.fsum(ctx.mpf(b) * ctx.expjpi(ctx.mpf(2 * j) / q)
                     for j, b in enumerate(buckets) if b)
    return ctx.mpc(ctx.ldexp(total.real, -P), ctx.ldexp(total.imag, -P))


def _at_precision(ctx, c):
    """A Fraction, GaussianRational or float constant at the working
    precision of ctx, each rational part rounded once."""
    if isinstance(c, Fraction):
        return ctx.mpf(c.numerator) / c.denominator
    if isinstance(c, GaussianRational):
        return ctx.mpc(_at_precision(ctx, c.re), _at_precision(ctx, c.im))
    return ctx.mpc(c)


def _sum_pointwise(arr, k, y, window, precision):
    ctx = MPContext()
    ctx.prec = max(precision, 53) + 24
    total = ctx.mpc(0)
    comp = ctx.mpc(0)  # Neumaier compensation
    yf = [_at_precision(ctx, v) if isinstance(v, Fraction) else ctx.mpf(v)
          for v in y]
    positive = [(arr.functionals[i].direction,
                 _at_precision(ctx, arr.functionals[i].constant),
                 k.weights[i]) for i in k.positive_set()]
    for v in constrained_points(arr, k, window):
        phase = ctx.expjpi(2 * sum(a * b for a, b in zip(yf, v)))
        den = ctx.mpc(1)
        for direction, c, kf in positive:
            val = sum(d * x for d, x in zip(direction, v)) + c
            den *= val**kf
        term = phase / den
        # Neumaier step
        t = total + term
        if abs(total) >= abs(term):
            comp += (total - t) + term
        else:
            comp += (term - t) + total
        total = t
    return total + comp


def _sum_vectorized(arr, k, y, window) -> complex:
    """The float64 path of truncated_sum: which points are excluded is
    decided exactly, from int64 values of <d, v> for rational constants
    and from the binary value of a float constant; only the terms are
    rounded."""
    yf = [float(v) for v in y]
    positive = [(arr.functionals[i], k.weights[i],
                 _vanishing_target(arr.functionals[i]))
                for i in k.positive_set()]
    bound = window.N
    v2i = np.arange(-bound, bound + 1, dtype=np.int64)
    v2 = v2i.astype(np.float64)
    re_parts: List[float] = []
    im_parts: List[float] = []
    for v1 in range(-bound, bound + 1):
        mask = np.ones(v2.shape, dtype=bool)
        den = np.ones_like(v2, dtype=np.complex128)
        for f, kf, target in positive:
            val = f.direction[0] * v1 + f.direction[1] * v2 \
                + complex(f.constant_complex())
            if target is _FLOAT:
                mask &= val != 0
            elif target is not None:
                mask &= f.direction[0] * v1 + f.direction[1] * v2i != target
            den *= np.where(mask, val, 1.0)**kf
        num = np.exp(2j * np.pi * (yf[0] * v1 + yf[1] * v2))
        terms = np.where(mask, num / den, 0.0)
        re_parts.append(float(np.sum(terms.real)))
        im_parts.append(float(np.sum(terms.imag)))
    return complex(math.fsum(re_parts), math.fsum(im_parts))


def convergence_scan(arr: Arrangement, k, y: Sequence, Ns: Sequence[int],
                     precision: int = 53, target=None) -> List[dict]:
    """Successive-difference table of Z(N) over increasing window sizes.

    `target` may be an exact scalar (embedded at working precision) or a
    complex number; differences are taken at working precision so that
    sub-double errors stay resolvable.
    """
    k = _weight_vector(arr, k, y)
    Ns = list(Ns)
    if any(b >= a for a, b in zip(Ns[1:], Ns)):
        raise ValueError("window sizes must be increasing")
    ctx = MPContext()
    ctx.prec = max(precision, 53) + 24
    tval = None
    if target is not None:
        tval = target.embed(ctx) if hasattr(target, "embed") \
            else ctx.mpc(complex(target))
    rows = []
    prev = None
    for N in Ns:
        z = truncated_sum(arr, k, y, TruncationWindow(N), precision)
        z = ctx.mpc(z)
        row = {"N": N, "re": float(z.real), "im": float(z.imag)}
        row["diff_prev"] = float(abs(z - prev)) if prev is not None else None
        if tval is not None:
            row["err"] = float(abs(z - tval))
        rows.append(row)
        prev = z
    return rows
