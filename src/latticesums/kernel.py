"""The one-dimensional generating kernel and its Taylor coefficients.

With lam = e^{-2 pi i b}, the kernel t * e^{(t - 2 pi i b) y} /
(e^{t - 2 pi i b} - 1) is e^{-2 pi i b y} t e^{ty} / (lam e^t - 1).  For
integral b (lam = 1) that is the Bernoulli generating function scaled by a
root of unity; otherwise it is the Apostol-Bernoulli generating function
(T. M. Apostol, On the Lerch zeta function, Pacific J. Math. 1, 1951),
whose coefficients follow from a recurrence that inverts only lam - 1.
Both the series and the closed-form coefficients live here, together with
the moment integrals against e^{-2 pi i m x} that drive the
brute-force/closed-form agreement.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List, Optional, Union

from .series import TruncatedSeries, Truncation


@lru_cache(maxsize=None)
def bernoulli_numbers(n: int) -> tuple:
    """B_0..B_n with B_1 = -1/2, from the defining series convolution."""
    out: List[Fraction] = [Fraction(1)]
    for m in range(1, n + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += math.comb(m + 1, j) * out[j]
        out.append(-acc / (m + 1))
    return tuple(out)


@lru_cache(maxsize=None)
def bernoulli_poly_coeffs(k: int) -> tuple:
    """Coefficients (in increasing powers of y) of the k-th Bernoulli polynomial."""
    bn = bernoulli_numbers(k)
    return tuple(math.comb(k, j) * bn[k - j] for j in range(k + 1))


def bernoulli_poly(k: int, y) -> Fraction:
    acc = Fraction(0)
    yp = Fraction(1)
    for c in bernoulli_poly_coeffs(k):
        acc += c * yp
        yp *= y
    return acc


@dataclass(frozen=True)
class KernelParams:
    """Kernel data: constant b, fractional-part argument y in [0, 1]."""

    b: Union[Fraction, complex]
    y: Union[Fraction, float]
    integral: bool

    @classmethod
    def make(cls, b, y) -> "KernelParams":
        if isinstance(b, Fraction) or isinstance(b, int):
            b = Fraction(b)
            integral = b.denominator == 1
        else:
            b = complex(b)
            integral = b.imag == 0 and abs(b.real - round(b.real)) < 1e-12
        if isinstance(y, Fraction) or isinstance(y, int):
            y = Fraction(y)
        if not 0 <= y <= 1:
            raise ValueError(f"kernel argument must lie in [0, 1], got {y}")
        return cls(b, y, integral)


def _num(ring, v):
    """Numeric-ring scalar preserving exact rational inputs at full precision."""
    if isinstance(v, (int, Fraction)):
        return ring.from_fraction(Fraction(v))
    return ring.from_complex(complex(v))


def _exp_b(ring, b, scale=1):
    """e^{2 pi i b scale} in either ring."""
    if ring.exact:
        return ring.root_of_unity(Fraction(b) * scale)
    if isinstance(b, (int, Fraction)) and isinstance(scale, (int, Fraction)):
        return ring.root_of_unity(Fraction(b) * Fraction(scale))
    return ring.exp_2pii_times(complex(b) * complex(scale))


def _apostol_numbers(ring, lam, order: int) -> list:
    """B_0(lam)..B_order(lam) for lam != 1, defined by
    t / (lam e^t - 1) = sum_n B_n(lam) t^n / n!, from the recurrence
    (lam - 1) B_n = [n = 1] - lam sum_{k<n} C(n, k) B_k (B_0 = 0)."""
    inv = ring.inv(lam - ring.one())
    out = [ring.zero()]
    for n in range(1, order + 1):
        acc = ring.zero()
        for k in range(1, n):
            acc = acc + ring.scale(out[k], math.comb(n, k))
        rhs = (ring.one() if n == 1 else ring.zero()) - lam * acc
        out.append(rhs * inv)
    return out


def _kernel_coeffs(ring, params: KernelParams, order: int) -> list:
    """c_0..c_order, the Taylor coefficients of the kernel in t.

    With lam = e^{-2 pi i b} the kernel is e^{-2 pi i b y} t e^{ty} /
    (lam e^t - 1), so c_n = e^{-2 pi i b y} B_n(y; lam) / n! with
    B_n(y; lam) = sum_k C(n, k) B_k(lam) y^{n-k}: Bernoulli numbers for
    integral b (lam = 1), Apostol-Bernoulli numbers otherwise.  The only
    inverse taken is 1/(lam - 1).
    """
    if params.integral:
        base = [ring.from_fraction(bk) for bk in bernoulli_numbers(order)]
    else:
        base = _apostol_numbers(ring, _exp_b(ring, params.b, -1), order)
    y = params.y
    pref = _exp_b(ring, params.b, -y)
    if ring.exact:
        base = [ring.scale(bk, Fraction(1, math.factorial(k)))
                for k, bk in enumerate(base)]
        ypow = [y ** j / math.factorial(j) for j in range(order + 1)]
        weigh = ring.scale
    else:
        base = [bk / math.factorial(k) for k, bk in enumerate(base)]
        yv = _num(ring, y)
        ypow = [yv ** j / math.factorial(j) for j in range(order + 1)]
        weigh = operator.mul
    out = []
    for n in range(order + 1):
        acc = ring.zero()
        for k in range(n + 1):
            if ypow[n - k]:
                acc = acc + weigh(base[k], ypow[n - k])
        out.append(acc * pref)
    return out


def _univariate(ring, coeffs, order: int, var: str,
                vars: Optional[tuple]) -> TruncatedSeries:
    vars = (var,) if vars is None else tuple(vars)
    s = TruncatedSeries(ring, vars, Truncation(order))
    p = vars.index(var)
    for n, c in enumerate(coeffs):
        if not ring.is_zero(c):
            s.terms[(0,) * p + (n,) + (0,) * (len(vars) - p - 1)] = c
    return s


def kernel_series(ring, params: KernelParams, order: int, var: str = "t",
                  vars: Optional[tuple] = None) -> TruncatedSeries:
    """Taylor expansion of the kernel through total degree `order`."""
    return _univariate(ring, _kernel_coeffs(ring, params, order), order,
                       var, vars)


def kernel_series_dy(ring, params: KernelParams, order: int, var: str = "t",
                     vars: Optional[tuple] = None) -> TruncatedSeries:
    """d/dy of the kernel series: the kernel times (t - 2 pi i b), since
    the kernel depends on y only through e^{(t - 2 pi i b) y}."""
    two_pi_i_b = ring.two_pi_i() * (ring.from_fraction(params.b)
                                    if ring.exact else _num(ring, params.b))
    c = _kernel_coeffs(ring, params, order)
    dy = [(c[n - 1] if n else ring.zero()) - two_pi_i_b * c[n]
          for n in range(order + 1)]
    return _univariate(ring, dy, order, var, vars)


def kernel_coeff(ring, k: int, params: KernelParams):
    """C(k, y; b): k! times the k-th Taylor coefficient."""
    if params.integral and ring.exact:
        pref = _exp_b(ring, params.b, -Fraction(params.y))
        return pref * ring.from_fraction(bernoulli_poly(k, Fraction(params.y)))
    s = kernel_series(ring, params, k)
    fact = ring.from_fraction(Fraction(math.factorial(k)))
    return s.coefficient((k,)) * fact


def kernel_moment(k: int, m: int, b) -> Union[Fraction, complex]:
    """The four-case value of -(2 pi i)^k/k! * integral_0^1 C(k,x;b) e^{-2 pi i m x} dx."""
    if isinstance(b, Fraction) or isinstance(b, int):
        shifted = Fraction(m) + Fraction(b)
        zero = shifted == 0
    else:
        shifted = m + complex(b)
        zero = shifted == 0
    if k == 0:
        return Fraction(-1) if zero else Fraction(0)
    if zero:
        return Fraction(0)
    if isinstance(shifted, Fraction):
        return 1 / shifted**k
    return 1 / shifted**k


def kernel_coeff_poly(ring, k: int, params_b: Fraction):
    """C(k, x; b) as a polynomial in x times e^{-2 pi i b x}.

    Returns the coefficient list [p_0, ..., p_d] (ring scalars) such that
    C(k, x; b) = (sum_j p_j x^j) e^{-2 pi i b x}.
    """
    b = Fraction(params_b)
    if b.denominator == 1:
        return [ring.from_fraction(c) for c in bernoulli_poly_coeffs(k)]
    # C(k, x; b) = B_k(x; lam) = sum_j C(k, j) B_{k-j}(lam) x^j, B_0(lam) = 0
    bn = _apostol_numbers(ring, _exp_b(ring, b, -1), k)
    return [ring.scale(bn[k - j], math.comb(k, j)) for j in range(k)] \
        or [ring.zero()]


def moment_integral_exact(ring, k: int, m: int, b: Fraction):
    """-(2 pi i)^k/k! * integral_0^1 C(k,x;b) e^{-2 pi i m x} dx, symbolically.

    The integrand is a polynomial times an exponential, so integration by
    parts gives a closed form inside Q(zeta_N)(pi).
    """
    b = Fraction(b)
    poly = kernel_coeff_poly(ring, k, b)
    shift = b + m
    if shift == 0:
        integral = ring.zero()
        for j, p in enumerate(poly):
            integral = integral + p * ring.from_fraction(Fraction(1, j + 1))
    else:
        c = -(ring.two_pi_i() * ring.from_fraction(shift))
        c_inv = ring.inv(c)
        e_c = ring.root_of_unity(-b)  # e^{-2 pi i (b + m)} = e^{-2 pi i b}
        integral = ring.zero()
        for j, p in enumerate(poly):
            if ring.is_zero(p):
                continue
            jfact = math.factorial(j)
            # int_0^1 x^j e^{cx} dx
            at_one = ring.zero()
            for i in range(j + 1):
                term = ring.from_fraction(Fraction((-1) ** (j - i) * jfact,
                                                   math.factorial(i)))
                at_one = at_one + term * c_inv ** (j - i + 1)
            at_zero = ring.from_fraction(Fraction((-1) ** j * jfact)) \
                * c_inv ** (j + 1)
            integral = integral + p * (e_c * at_one - at_zero)
    sign = ring.from_fraction(Fraction(-1, math.factorial(k)))
    return sign * ring.two_pi_i() ** k * integral
