"""Brute-force partial sums of the defining lattice series.

This module is the ground truth the closed-form evaluators are checked
against, so it stays definitionally transparent: sum the terms
e^{2 pi i <y, v>} / prod f(v)^{k_f} over the integer points of an expanding
symmetric box, with the zero-weight functionals turned into exact linear
constraints on the summation sublattice and a (-1) sign each.  No
acceleration or resummation tricks.

Every input is read exactly: a constant through
``Functional.exact_constant`` (a Fraction or a GaussianRational, a float
at its binary value) and y as Fractions (a float at its binary value).
Which points a functional excludes is decided from those exact data, and
a sum is taken on one of two paths, float64 or exact integers (see
``truncated_sum``); only the terms are rounded, the integer path's to a
bound relative to the largest term.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from collections import defaultdict
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


def _vanishing_target(f):
    """The integer -c when the constant c of f is an integer, so that f
    vanishes exactly where <d, v> == -c; None when f vanishes nowhere on
    the lattice (c not an integer, or a Gaussian c with im != 0).  The
    constant is read exactly, a float at its binary value."""
    c = f.exact_constant()
    if isinstance(c, Fraction) and c.denominator == 1:
        return -c.numerator
    return None


def _zero_constraints(arr: Arrangement, k: WeightVector):
    """Rows/rhs of the integral system f(v) = 0 for zero-weight functionals.

    Returns None when the system has no integer solutions (a constant that
    is not an integer), which empties the sum.
    """
    rows, rhs = [], []
    for i in k.zero_set():
        f = arr.functionals[i]
        target = _vanishing_target(f)
        if target is None:
            return None
        rows.append(list(f.direction))
        rhs.append(target)
    return rows, rhs


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
    integral = []
    for i in k.positive_set():
        f = arr.functionals[i]
        target = _vanishing_target(f)
        if target is not None:
            integral.append((f.direction, target))

    def admissible(v, inside=False) -> bool:
        if not (inside or all(abs(x) <= bound for x in v)):
            return False
        for direction, target in integral:
            if sum(map(mul, direction, v)) == target:
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
    entry per dimension.  This is the one-window case of the walk that
    ``convergence_scan`` makes, on one of two paths chosen from the data:
    rank 2 without zero weights at precision <= 53 in numpy float64
    (``_sum_vectorized``), otherwise in exact integers (``_sum_integer``),
    within 2^-(max(precision, 53)+1) t of the exact sum, t the largest
    |term|.

    Measured on a 2-CPU x86-64 box with Python 3.11 (process time, the
    best of 8 to 40 runs): ``a1_alpha1``, k = (2,2,2), y = 0, N = 2000
    takes 0.015 s on the integer path; ``triangle_rational`` at
    y = (1/7, 2/11), N = 200 takes 0.39 s on the integer path at
    precision 128 and 0.010 s in float64, 4.6e-13 off.
    """
    k = _weight_vector(arr, k, y)
    return _window_sums(arr, k, y, [window.N], precision)[0]


def _window_sums(arr: Arrangement, k: WeightVector, y: Sequence,
                 Ns: Sequence[int], precision: int) -> list:
    """Z(N) for each of the increasing window sizes Ns, from one walk over
    the largest window, on the path that ``truncated_sum`` describes."""
    if not Ns:
        return []
    if not k.zero_set() and precision <= 53 and arr.rank == 2:
        return _sum_vectorized(arr, k, y, Ns)
    return _sum_integer(arr, k, y, Ns, precision)


def _gaussian_power(a: int, b: int, e: int) -> Tuple[int, int]:
    """(a + b i)^e as the pair of its parts."""
    re, im = 1, 0
    for _ in range(e):
        re, im = re * a - im * b, re * b + im * a
    return re, im


def _sum_integer(arr, k, y, Ns, precision):
    """The integer path of truncated_sum for each window of Ns, signed.

    Every constant is read exactly (a float at its binary value), and so
    is y.  With D the common denominator of the parts of the constants,
    g_f = D f is an integer, or a Gaussian integer, on the lattice, read
    with its power k_f from one table per functional keyed by <d_f, v>
    and filled as the walk meets each value.  Each point adds
    round(2^P D^K / prod g_f(v)^{k_f}), K = sum k_f, to the bucket of its
    phase e^{2 pi i <y, v>}, a root of unity of order q = den(y), keyed
    by <q y, v> mod q, among the buckets of the smallest window that holds
    it; a window's buckets are the sum of those up to it, and meet their
    roots once, at the end.  For Gaussian constants, with G the product of
    the Gaussian g_f(v)^{k_f} and R that of the real ones, the term
    D^K conj(G) / (R |G|^2) is rounded part by part; without one, no
    point does Gaussian work.

    With w = max(precision, 53) + 24 and
    P = w + 1 + bit_length((2 N + 1)^rank), N the largest window, the n
    points of a window are off by at most n 2^-(P+1) <= 2^-(w+2) in each
    part of its buckets, in any order, so its sum by as much in modulus
    with real constants and by sqrt(2) times that with a Gaussian one,
    and the combination adds under 2^-(P+4).  When the largest |term| t
    (at least D^K over the smallest |prod g_f(v)^{k_f}|, kept on the
    walk) is below 2^-24, the walk is made once more with P raised by e,
    2^-e <= t, so that each part is off by at most 2^-(w+2) t.  Either
    way the sum is within 2^-(max(precision, 53)+1) t of the exact one.
    """
    parts = []
    for i in k.positive_set():
        f = arr.functionals[i]
        c = f.exact_constant()
        re, im = (c.re, c.im) if isinstance(c, GaussianRational) else (c, 0)
        parts.append((f.direction, re, im, k.weights[i]))
    D = math.lcm(*(x.denominator for _, re, im, _ in parts
                   for x in (re, im)))
    tables = [(d, int(D * re), kf, {}) for d, re, im, kf in parts if not im]
    gaussian = [(d, int(D * re), int(D * im), kf, {})
                for d, re, im, kf in parts if im]
    yq = [Fraction(v) for v in y]
    q = math.lcm(*(v.denominator for v in yq))
    ynum = [int(q * v) for v in yq]
    bound = Ns[-1]
    work = max(precision, 53) + 24
    points = (2 * bound + 1) ** arr.rank
    P = work + points.bit_length() + 1
    DK = D ** sum(k.weights)
    for walk in range(2):
        twice = DK << (P + 1)
        re_buckets = [defaultdict(int) for _ in Ns]
        im_buckets = [defaultdict(int) for _ in Ns]
        smallest = math.inf
        for v in constrained_points(arr, k, TruncationWindow(bound)):
            den = 1
            for direction, Dc, kf, powers in tables:
                # g_f(v)^{k_f} keyed by t = <d_f, v>, computed when the
                # walk first meets t
                t = sum(map(mul, direction, v))
                power = powers.get(t)
                if power is None:
                    power = powers[t] = (D * t + Dc) ** kf
                den *= power
            # the buckets of the smallest window that holds v, at its phase
            w = bisect_left(Ns, max(map(abs, v)))
            j = sum(map(mul, ynum, v)) % q
            if not gaussian:
                if abs(den) < smallest:
                    smallest = abs(den)
                # floor(2^P D^K / den + 1/2), the nearest integer for
                # either sign
                re_buckets[w][j] += (twice + den) // (2 * den)
                continue
            gre, gim = 1, 0
            for direction, Dre, Dim, kf, powers in gaussian:
                t = sum(map(mul, direction, v))
                power = powers.get(t)
                if power is None:
                    power = powers[t] = _gaussian_power(D * t + Dre, Dim, kf)
                gre, gim = (gre * power[0] - gim * power[1],
                            gre * power[1] + gim * power[0])
            # |R| ceil(|G|), with |G|^2 >= 1
            smallest = min(smallest, abs(den)
                           * (math.isqrt(gre * gre + gim * gim - 1) + 1))
            # D^K / (den G) = D^K conj(G) / (den |G|^2), each part rounded
            # to the nearest integer as above
            den *= gre * gre + gim * gim
            re_buckets[w][j] += (twice * gre + den) // (2 * den)
            im_buckets[w][j] += (den - twice * gim) // (2 * den)
        if walk or not DK << 24 < smallest < math.inf:
            break
        # t, the largest term, is below 2^-24: walk again at P + e, 2^-e <= t
        P += smallest.bit_length() - DK.bit_length() + 1
    sign = (-1) ** len(k.zero_set())
    ctx = MPContext()
    sums, acc_re, acc_im = [], defaultdict(int), defaultdict(int)
    for window_buckets in zip(re_buckets, im_buckets):
        for acc, buckets in zip((acc_re, acc_im), window_buckets):
            for j, b in buckets.items():
                acc[j] += b
        # every bucket converts exactly, and the roots of unity and the
        # sum stay within 2^-(P+4) of the exact combination
        values = itertools.chain(acc_re.values(), acc_im.values())
        ctx.prec = max(map(abs, values), default=0).bit_length() \
            + 2 * q.bit_length() + 8
        total = ctx.fsum(ctx.mpc(acc_re.get(j, 0), acc_im.get(j, 0))
                         * ctx.expjpi(ctx.mpf(2 * j) / q)
                         for j in sorted(acc_re.keys() | acc_im.keys())
                         if acc_re.get(j) or acc_im.get(j))
        sums.append(sign * ctx.mpc(ctx.ldexp(total.real, -P),
                                   ctx.ldexp(total.imag, -P)))
    return sums


# rows of the box per numpy pass of the float64 path: on a 2-CPU x86-64
# box, 16 rows scanned ``triangle_rational`` (N = 25 to 200) about 5%
# faster, but raised the peak memory of the scan from 0.45 to 0.78 MB
_BLOCK_ROWS = 8


def _sum_vectorized(arr, k, y, Ns) -> List[complex]:
    """The float64 path of truncated_sum for each window of Ns: which
    points are excluded is decided exactly, from int64 values of <d, v>
    against the integer -c of an integral constant c (a float at its
    binary value); only the terms are rounded.  The terms of a block of
    ``_BLOCK_ROWS`` rows of the largest window are computed once, each
    window sums with numpy the part of every row that it covers, and the
    row sums are added with ``math.fsum``."""
    yf = [float(v) for v in y]
    positive = [(arr.functionals[i], k.weights[i],
                 _vanishing_target(arr.functionals[i]))
                for i in k.positive_set()]
    bound = Ns[-1]
    v2i = np.arange(-bound, bound + 1, dtype=np.int64)
    v2 = v2i.astype(np.float64)
    re_parts: List[List[float]] = [[] for _ in Ns]
    im_parts: List[List[float]] = [[] for _ in Ns]
    for first in range(-bound, bound + 1, _BLOCK_ROWS):
        last = min(first + _BLOCK_ROWS, bound + 1)
        v1i = np.arange(first, last, dtype=np.int64)[:, None]
        v1 = v1i.astype(np.float64)
        mask = np.ones((last - first, v2.size), dtype=bool)
        den = np.ones(mask.shape, dtype=np.complex128)
        for f, kf, target in positive:
            val = f.direction[0] * v1i + f.direction[1] * v2 \
                + complex(f.exact_constant())
            if target is not None:
                mask &= f.direction[0] * v1i + f.direction[1] * v2i != target
            den *= np.where(mask, val, 1.0)**kf
        num = np.exp(2j * np.pi * (yf[0] * v1 + yf[1] * v2))
        terms = np.where(mask, num / den, 0.0)
        for N, re, im in zip(Ns, re_parts, im_parts):
            top, end = max(first, -N), min(last, N + 1)
            if top >= end:
                continue
            block = terms[top - first:end - first, bound - N:bound + N + 1]
            re.extend(block.real.sum(axis=1).tolist())
            im.extend(block.imag.sum(axis=1).tolist())
    return [complex(math.fsum(re), math.fsum(im))
            for re, im in zip(re_parts, im_parts)]


def convergence_scan(arr: Arrangement, k, y: Sequence, Ns: Sequence[int],
                     precision: int = 53, target=None) -> List[dict]:
    """Successive-difference table of Z(N) over increasing window sizes.

    One walk over the largest window gives every row (two on the integer
    path when its largest term is below 2^-24): each window's sum is read
    as the walk passes it, on the path that ``truncated_sum`` would take
    for it.  The float64 rows equal the one-window sums; the integer rows
    keep the bound of ``_sum_integer``, P being fixed from the largest
    window, but are not always equal to them.  Measured as
    ``truncated_sum`` is, a rank-1 scan with a Gaussian-rational constant
    (N = 100, 200 and 400, precision 128) takes 0.0043 s, and a rank-2
    one with float constants (N = 25, 50 and 100) 0.22 s.

    `target` may be an exact scalar (embedded at working precision), an
    mpmath number (read at its own precision, rounded to the working one
    only if that is lower) or a complex number; differences are taken at
    working precision so that sub-double errors stay resolvable.
    """
    k = _weight_vector(arr, k, y)
    Ns = list(Ns)
    if any(b >= a for a, b in zip(Ns[1:], Ns)):
        raise ValueError("window sizes must be increasing")
    if Ns:
        TruncationWindow(Ns[0])  # rejects a size below 1
    ctx = MPContext()
    ctx.prec = max(precision, 53) + 24
    tval = None
    if target is not None:
        tval = target.embed(ctx) if hasattr(target, "embed") \
            else ctx.mpc(target)
    rows = []
    prev = None
    for N, z in zip(Ns, _window_sums(arr, k, y, Ns, precision)):
        z = ctx.mpc(z)
        row = {"N": N, "re": float(z.real), "im": float(z.imag)}
        row["diff_prev"] = float(abs(z - prev)) if prev is not None else None
        if tval is not None:
            row["err"] = float(abs(z - tval))
        rows.append(row)
        prev = z
    return rows
