"""The one-dimensional generating kernel and its Taylor coefficients.

With lam = e^{-2 pi i b}, the kernel t * e^{(t - 2 pi i b) y} /
(e^{t - 2 pi i b} - 1) is e^{-2 pi i b y} t e^{ty} / (lam e^t - 1).  For
integral b (lam = 1) that is the Bernoulli generating function scaled by a
root of unity; otherwise it is the Apostol-Bernoulli generating function
(T. M. Apostol, On the Lerch zeta function, Pacific J. Math. 1, 1951),
whose coefficients follow from a recurrence that inverts only lam - 1.
The evaluators read the kernel only as this series in t.  The closed-form
coefficients C(k, y; b) (Bernoulli polynomials for integral b) and their
moment integrals against e^{-2 pi i m x} are independent references for
it, kept with the tests in ``tests/reference.py``.
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
