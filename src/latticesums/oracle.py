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
Which points a functional excludes is decided from those exact data, on
Python ints, and a sum is taken on one of two paths, float64 or exact
integers (see ``truncated_sum``), both on the standard library and
mpmath alone; only the terms are rounded, the integer path's to a bound
relative to the largest term.
"""

from __future__ import annotations

import cmath
import itertools
import math
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from operator import mul
from typing import Iterator, List, Sequence, Tuple

from . import intlinalg
from .genfun import WeightVector
from .lattice import Arrangement, GaussianRational
from .scalar import _context

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
    rank 2 without zero weights at precision <= 53 in float64
    (``_sum_float``), otherwise in exact integers (``_sum_integer``),
    within 2^-(max(precision, 53)+1) t of the exact sum, t the largest
    |term|.

    Measured on a 2-CPU x86-64 box with Python 3.11 (process time, the
    best of 8 to 40 runs): ``a1_alpha1``, k = (2,2,2), y = 0, N = 2000
    takes 0.012 s on the integer path; ``triangle_rational`` at
    y = (1/7, 2/11), N = 200 takes 0.34 s on the integer path at
    precision 128 and 0.009 s in float64, 1.1e-13 off, and at the float
    shift y = (0.1, 0.3), whose phase never repeats along a row, 0.019 s
    in float64.
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
        return _sum_float(arr, k, y, Ns)
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
    sums, acc_re, acc_im = [], defaultdict(int), defaultdict(int)
    for window_buckets in zip(re_buckets, im_buckets):
        for acc, buckets in zip((acc_re, acc_im), window_buckets):
            for j, b in buckets.items():
                acc[j] += b
        # every bucket converts exactly, and the roots of unity and the
        # sum stay within 2^-(P+4) of the exact combination; the
        # precision is rounded up to a multiple of 64 bits, so that the
        # sums share a few of the contexts that scalar._context keeps
        values = itertools.chain(acc_re.values(), acc_im.values())
        bits = (max(map(abs, values), default=0).bit_length()
                + 2 * q.bit_length() + 8)
        ctx = _context(-(-bits // 64) * 64)
        total = ctx.fsum(ctx.mpc(acc_re.get(j, 0), acc_im.get(j, 0))
                         * ctx.expjpi(ctx.mpf(2 * j) / q)
                         for j in sorted(acc_re.keys() | acc_im.keys())
                         if acc_re.get(j) or acc_im.get(j))
        sums.append(sign * ctx.mpc(ctx.ldexp(total.real, -P),
                                   ctx.ldexp(total.imag, -P)))
    return sums


def _powers(f, kf: int, ts) -> list:
    """(t + c)^(-k_f) in floating point for each integer t = <d_f, v> of
    ts, c the constant of f, and 0.0 where f vanishes (c an integer and
    t = -c, decided on ints).  With c = n + r, n the floor of its real
    part, t + n is summed in ints, so that however large t is, f(v) is
    rounded only from t + n and r."""
    c = f.exact_constant()
    re, im = (c.re, c.im) if isinstance(c, GaussianRational) else (c, 0)
    n = math.floor(re)
    r, target = float(re - n), _vanishing_target(f)
    if im:
        im = float(im)
        return [0.0 if t == target else complex(float(t + n) + r, im) ** -kf
                for t in ts]
    return [0.0 if t == target else (float(t + n) + r) ** -kf for t in ts]


def _sum_float(arr, k, y, Ns) -> List[complex]:
    """The float path of truncated_sum for each window of Ns, on the
    standard library alone: which points are excluded is decided exactly
    (``_powers``); only the terms are rounded.

    Rows of the largest window run along the coordinate in which the phase
    e^{2 pi i <y, v>} repeats sooner, its period p read from y over its
    common denominator q; a functional's value is its table entry at t =
    a u + b w, u the row and w the place in it.  With b = 0 it scales the
    row, with a = 0 it is one list shared by every row, and otherwise the
    row is a strided slice of its table over every t of the largest
    window, or, when that table would outgrow the (2 N + 1)^2 points,
    computed for the row alone.  Each window sums every residue class mod
    p of its part of a row with one ``sum`` and meets the class's root
    once, the row its phase and scale once, and adds its rows with
    ``math.fsum``: a window sums every point the same way in a scan as
    alone."""
    bound = Ns[-1]
    span = range(-bound, bound + 1)
    yq = [Fraction(v) for v in y]
    q = math.lcm(*(v.denominator for v in yq))
    periods = [q // math.gcd(int(q * v), q) for v in yq]
    axes = (0, 1) if periods[1] <= periods[0] else (1, 0)
    A, B = (int(q * yq[axis]) for axis in axes)
    period = periods[axes[1]]

    def root(j):
        # e^{2 pi i j / q}, the angle taken in (-pi, pi]
        j %= q
        return cmath.rect(1.0, math.tau * ((j if 2 * j <= q else j - q) / q))

    # the elementwise product of lists of one length
    product = partial(reduce, partial(map, mul))
    scales = [root(A * u) for u in span]
    shared, sloped = [], []
    for i in k.positive_set():
        f, kf = arr.functionals[i], k.weights[i]
        a, b = (f.direction[axis] for axis in axes)
        if not b:
            scales = list(map(mul, scales,
                              _powers(f, kf, [a * u for u in span])))
        elif not a:
            shared.append(_powers(f, kf, [b * w for w in span]))
        else:
            reach = (abs(a) + abs(b)) * bound
            table = _powers(f, kf, range(-reach, reach + 1)) \
                if 2 * reach < len(span) ** 2 else None
            sloped.append((f, kf, a, b, reach, table))
    shared = [list(product(shared))] if shared else []
    windows = []
    for N in Ns:
        classes = range(-N, min(period, 2 * N + 1) - N)
        windows.append((bound - N, bound + N + 1,
                        [root(B * w) for w in classes]))
    re_parts: List[List[float]] = [[] for _ in Ns]
    im_parts: List[List[float]] = [[] for _ in Ns]
    for u, scale in zip(span, scales):
        if not scale:
            continue
        factors = []
        for f, kf, a, b, reach, table in sloped:
            first = a * u - b * bound
            end = first + b * len(span)
            if table is None:
                factors.append(_powers(f, kf, range(first, end, b)))
            else:
                end += reach
                factors.append(
                    table[first + reach:end if end >= 0 else None:b])
        # the directions span, so some functional varies along the row
        row = list(product(factors + shared))
        for w in range(bisect_left(Ns, abs(u)), len(Ns)):
            lo, hi, roots = windows[w]
            sums = row[lo:hi] if len(roots) == hi - lo else \
                [sum(row[i:hi:period]) for i in range(lo, lo + len(roots))]
            z = scale * sum(map(mul, roots, sums))
            re_parts[w].append(z.real)
            im_parts[w].append(z.imag)
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
    window, but are not always equal to them.  Rows are read in the
    shared mpmath context of their precision (``scalar._context``), whose
    precision no caller sets.  Measured as ``truncated_sum`` is, a rank-1
    scan with the Gaussian-rational constant 1/2 + i/3 (N = 100, 200 and
    400, precision 128) takes 0.0030 s; a rank-2 one with float constants
    (N = 25, 50 and 100) 0.19 s at precision 60 and 0.0050 s in float64;
    and ``triangle_rational`` at y = (1/7, 2/11) (N = 25, 50, 100 and 200)
    0.010 s in float64, 0.022 s at the float shift y = (0.1, 0.3).

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
    ctx = _context(max(precision, 53) + 24)
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
