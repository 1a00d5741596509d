"""The one-dimensional generating kernel and its Taylor coefficients.

With lam = e^{-2 pi i b}, the kernel t * e^{(t - 2 pi i b) y} /
(e^{t - 2 pi i b} - 1) is e^{-2 pi i b y} t e^{ty} / (lam e^t - 1): a root
of unity times a part without it, the Bernoulli generating function for
integral b (lam = 1) and else the Apostol-Bernoulli one (T. M. Apostol, On
the Lerch zeta function, Pacific J. Math. 1, 1951).  Its numbers B_k(lam)
follow from a recurrence whose one quotient, 1/(lam - 1), the ring builds
from the exact -b (``root_minus_one_inverse``), and they depend on b, not
on y, so one list serves every y (``kernel_base``, ``kernel_parts``).

Each root e^{2 pi i q}, for the exact q = -b y (``KernelParams.exponent``)
or -b, is applied by the ring: the recurrence multiplies by lam through
``times_root(x, -b)``, which in the exact ring moves exponents and builds
no root, and 2 pi i b is ``two_pi_i() * from_fraction(b)``: the ring
alone turns an exact constant, a Gaussian-rational one included, into a
scalar.  The root-free parts are built on integers (``kernel_parts``):
the base B_k(lam) / k! over one denominator, y = r / d as ints, one
cancel per part in the exact ring; in the numeric ring the base's integer
mantissas over one power of two, the same integer sums, and one rounding
per part.  The basis sum reads only the root-free parts
(``nonzero_parts``, through ``genfun.EvaluationContext.kernel``, which
keys them by y's ints) and applies the roots of a coset's kernels once,
as one exponent, through ``times_root``.  The rooted series
(``rooted_series``: ``kernel_series`` and ``kernel_series_dy``, which
build the root with ``root_of_unity``) serve the polytope route's
prefactor at y = 0 and the tests.  The closed-form coefficients
C(k, y; b) and their moment integrals against e^{-2 pi i m x} are
independent references, in ``tests/reference.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Union

from .lattice import GaussianRational
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
    """Kernel data: exact constant b and the fractional-part argument
    y = r / d in [0, 1], r and d ints in lowest terms.  A non-real b is
    the exact GaussianRational, so that numeric mode rounds its exponents
    -b y only once, in the exponential."""

    b: Union[Fraction, GaussianRational]
    r: int
    d: int
    integral: bool

    @classmethod
    def make(cls, b, y) -> "KernelParams":
        """The kernel of constant b at the rational y."""
        y = Fraction(y)
        return cls.at(b, y.numerator, y.denominator)

    @classmethod
    def at(cls, b, r: int, d: int) -> "KernelParams":
        """The kernel of constant b at y = r / d, in lowest terms with
        d > 0, as ``EvaluationContext.kernel`` holds its residue."""
        if isinstance(b, GaussianRational) and b.im == 0:
            b = b.re
        if isinstance(b, (int, Fraction)):
            if type(b) is not Fraction:
                b = Fraction(b)
            integral = b.denominator == 1
        elif isinstance(b, GaussianRational):
            integral = False
        else:
            raise TypeError(f"a kernel constant must be an int, a Fraction "
                            f"or a GaussianRational, got {b!r}")
        if not 0 <= r <= d:
            raise ValueError(f"kernel argument must lie in [0, 1], got "
                             f"{Fraction(r, d)}")
        return cls(b, r, d, integral)

    @property
    def y(self) -> Fraction:
        return Fraction(self.r, self.d)

    def exponent(self):
        """q = -b y, the exponent of the kernel's root e^{2 pi i q}."""
        b = self.b
        if type(b) is Fraction:
            return Fraction(-b.numerator * self.r, b.denominator * self.d)
        return -b * self.y


def _apostol_numbers(ring, q, order: int) -> list:
    """B_0(lam)..B_order(lam) for lam = e^{2 pi i q} != 1, defined by
    t / (lam e^t - 1) = sum_n B_n(lam) t^n / n!, from the recurrence
    (lam - 1) B_n = [n = 1] - lam sum_{k<n} C(n, k) B_k (B_0 = 0), each
    product by lam a ``ring.times_root``."""
    inv = ring.root_minus_one_inverse(q)
    out = [ring.zero()]
    for n in range(1, order + 1):
        acc = ring.zero()
        for k in range(1, n):
            acc = acc + ring.scale(out[k], math.comb(n, k))
        rhs = (ring.one() if n == 1 else ring.zero()) \
            - ring.times_root(acc, q)
        out.append(rhs * inv)
    return out


def kernel_base(ring, params: KernelParams, order: int) -> list:
    """B_k(lam) / k! for k <= order, lam = e^{-2 pi i b}: Bernoulli
    numbers for integral b (lam = 1), Apostol-Bernoulli numbers otherwise.
    They depend on b and the order, not on y.  The one inverse,
    1/(lam - 1), is ``ring.root_minus_one_inverse(-b)``, in closed form in
    the exact ring; the division by k! is ``ring.scale`` in both rings."""
    if params.integral:
        base = [ring.from_fraction(bk) for bk in bernoulli_numbers(order)]
    else:
        base = _apostol_numbers(ring, -params.b, order)
    return [ring.scale(bk, Fraction(1, math.factorial(k)))
            for k, bk in enumerate(base)]


def kernel_parts(ring, params: KernelParams, order: int, base) -> list:
    """a_0..a_order, the kernel's Taylor coefficients in t without its
    root of unity: c_n = e^{-2 pi i b y} a_n with

        a_n = B_n(y; lam) / n! = sum_k B_k(lam)/k! * y^{n-k}/(n-k)!,

    `base` = ``kernel_base(ring, params, order)``.  In the exact ring the
    base is put over one denominator D, and with y = r / d each a_n is one
    sum of integer numerators, num_k r^(n-k) d^k n! / (n-k)! over
    D d^n n!, cancelled once; in the numeric ring D is a power of two,
    the base read through its mantissas, and each a_n is rounded once."""
    base = base[:order + 1]
    r, d = params.r, params.d
    if not r:
        return base  # y = 0: a_n = B_n(lam) / n!
    # per n, d^n n! and the weights r^(n-k) d^k n! / (n-k)! for k <= n
    rpow, dpow = [1], [1]
    for _ in range(order):
        rpow.append(rpow[-1] * r)
        dpow.append(dpow[-1] * d)
    weights = []
    for n in range(order + 1):
        ws, fall = [], 1  # fall = n! / (n - k)!
        for k in range(n + 1):
            ws.append(rpow[n - k] * dpow[k] * fall)
            fall *= n - k
        weights.append((dpow[n] * math.factorial(n), ws))
    if not ring.exact:
        # the base as (re + im i) 2^E, E the least exponent of its parts
        reads = [ring.mantissas(x) for x in base]
        E = min((e for re, im, e in reads if re or im), default=0)
        nums = [(re << (e - E), im << (e - E)) if re or im else (0, 0)
                for re, im, e in reads]
        return [ring.from_mantissas(
            sum(w * re for w, (re, _) in zip(ws, nums)),
            sum(w * im for w, (_, im) in zip(ws, nums)), E, den)
            for den, ws in weights]
    D = math.lcm(*(x.den for x in base))
    nums = [[(key, v * (D // x.den)) for key, v in x.terms.items()]
            for x in base]
    out = []
    for den, ws in weights:
        acc: Dict[tuple, int] = {}
        get = acc.get
        for w, num in zip(ws, nums):
            for key, v in num:
                acc[key] = get(key, 0) + v * w
        if 0 in acc.values():
            acc = {key: v for key, v in acc.items() if v}
        # reads only the field of its scalar
        out.append(ring.zero()._cancel(acc, D * den))
    return out


def nonzero_parts(ring, parts, q) -> Dict[int, object]:
    """``{n: a_n}`` for the root-free parts whose coefficient e^{2 pi i q}
    a_n is not zero.  For rational q the root has modulus 1, so a_n is
    tested; for any other q (a complex b) the numeric ring's absolute test
    is made on the coefficient, as the root's modulus is e^{-2 pi Im q}."""
    if ring.exact or isinstance(q, (int, Fraction)):
        return {n: a for n, a in enumerate(parts) if not ring.is_zero(a)}
    root = ring.root_of_unity(q)
    return {n: a for n, a in enumerate(parts) if not ring.is_zero(a * root)}


def rooted_series(ring, parts: Dict[int, object], q, order: int, var: str,
                  vars: Optional[tuple] = None) -> TruncatedSeries:
    """sum_n e^{2 pi i q} parts[n] var^n through degree `order`, in
    `vars`: the kernel from its root of unity and its nonzero root-free
    parts (``nonzero_parts``)."""
    vars = (var,) if vars is None else tuple(vars)
    p = vars.index(var)
    root = ring.root_of_unity(q)
    return TruncatedSeries(ring, vars, Truncation(order), {
        (0,) * p + (n,) + (0,) * (len(vars) - p - 1): a * root
        for n, a in parts.items()})


def kernel_series(ring, params: KernelParams, order: int, var: str = "t",
                  vars: Optional[tuple] = None) -> TruncatedSeries:
    """Taylor expansion of the kernel through total degree `order`."""
    q = params.exponent()
    a = kernel_parts(ring, params, order, kernel_base(ring, params, order))
    return rooted_series(ring, nonzero_parts(ring, a, q), q, order, var, vars)


def kernel_series_dy(ring, params: KernelParams, order: int, var: str = "t",
                     vars: Optional[tuple] = None) -> TruncatedSeries:
    """d/dy of the kernel series: the kernel times (t - 2 pi i b), since
    the kernel depends on y only through e^{(t - 2 pi i b) y}."""
    two_pi_i_b = ring.two_pi_i() * ring.from_fraction(params.b)
    a = kernel_parts(ring, params, order, kernel_base(ring, params, order))
    dy = [(a[n - 1] if n else ring.zero()) - two_pi_i_b * a[n]
          for n in range(order + 1)]
    q = params.exponent()
    return rooted_series(ring, nonzero_parts(ring, dy, q), q, order, var, vars)
