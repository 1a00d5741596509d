"""Coefficient rings for all series work, and exact-scalar serialization.

Two interchangeable rings live here behind one small protocol:

* ``ExactRing`` -- Laurent polynomials in the transcendental symbol ``pi``
  with coefficients in Q(zeta_N), as ``ExactScalar`` values (defined in
  ``cyclotomic`` and re-exported here): one flat map ``{(pi power,
  cyclotomic basis exponents): int}`` of numerators over one shared
  positive denominator, kept in lowest terms after every operation;
  products of basis monomials come from a table that the field fills as
  they are first met.  Only pi-monomials with a nonzero Q(zeta_N)
  coefficient are invertible; any other inverse raises ``NotInvertible``.
  The evaluators invert no scalar: the one quotient they need,
  1/(e^{2 pi i q} - 1), is built from q in closed form.
* ``NumericRing`` -- arbitrary-precision complex floats (mpmath), with the
  tolerance conventions needed by the numeric evaluation paths.

The ring interface used by the rest of the package: ``zero``, ``one``,
``from_fraction`` and ``root_of_unity`` (e^{2 pi i q}), the one road from
an exact constant q, a Fraction or (in the numeric ring) a Gaussian
rational, to a scalar (exact mode refuses non-real constants before any
ring is built, so the exact ring reads real ones only),
``root_minus_one_inverse`` (1/(e^{2 pi i q} - 1) for q not an integer,
the kernels' one quotient),
``two_pi_i``, ``is_zero``, ``inv``, ``scale`` (a scalar times a
rational, with no product of scalars), the two series operations
``mul_terms`` (a sum of truncated products of two series term maps: one
series product, or a sum of series each times a multiplier, a scalar as
a one-term map or a polynomial over Q) and ``unit_lift`` (coefficients
from integer numerators times scalars over powers of 2 pi i),
``detach``/``attach`` (a scalar as plain data that holds no field or
context, and back), and the flag ``exact``.  The exact ring builds each output coefficient of
the two series operations once: it
works on integer numerators over one denominator and builds one
``ExactScalar`` per coefficient, cancelled once.  Every structural
decision (which forms are singular, which are equal, which
coefficient pivots a division) is taken from exact rational data outside
the ring, so the exact ring has no float size estimate; only
``NumericRing`` has ``magnitude``, which sizes division residuals and
tolerances.

``format_scalar`` writes an exact scalar canonically and ``parse_scalar``
reads it back.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from operator import add, le
from typing import Dict

from mpmath.ctx_mp import MPContext

from .cyclotomic import CyclotomicField, ExactScalar
from .lattice import GaussianRational
from .series import convolve

# ---------------------------------------------------------------------------
# ring adapters
# ---------------------------------------------------------------------------


class ExactRing:
    """The exact coefficient ring Q(zeta_N)[pi, 1/pi]."""

    exact = True

    def __init__(self, N: int):
        if N % 4 != 0:
            raise ValueError("cyclotomic order must be divisible by 4")
        self.N = N
        self.field = CyclotomicField(N)
        self._zero = ExactScalar(self.field, {})
        self._one = self.from_fraction(1)
        self._two_pi_i = self.field.zeta_pow(N // 4) \
            * ExactScalar(self.field, {(1, self.field.zero_exps): 2})
        # i^(-m) for m = 0..3 (1, -i, -1, i) as (basis exponents, sign):
        # i = zeta_N^(N/4) is one basis monomial
        (_, i_exps), = self.field.zeta_pow(N // 4).terms
        zero = self.field.zero_exps
        self._turns = ((zero, 1), (i_exps, -1), (zero, -1), (i_exps, 1))

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def from_fraction(self, q):
        """The int or Fraction q as a scalar (exact mode has no non-real
        constant)."""
        q = Fraction(q)
        if q == 0:
            return self._zero
        return ExactScalar(self.field, {(0, self.field.zero_exps):
                                        q.numerator}, q.denominator)

    def root_of_unity(self, q):
        """e^{2 pi i q} for rational q."""
        if Fraction(q).denominator == 1:
            return self._one
        return self.field.root_of_unity(q)

    def root_minus_one_inverse(self, q):
        """1/(e^{2 pi i q} - 1) for non-integral rational q, in closed
        form."""
        return self.field.root_minus_one_inverse(q)

    def two_pi_i(self):
        return self._two_pi_i

    def detach(self, x) -> tuple:
        """x as plain data that holds no field: ``(terms, den)``."""
        return tuple(x.terms.items()), x.den

    def attach(self, data) -> ExactScalar:
        """The scalar that ``detach`` made `data` from, in this ring."""
        terms, den = data
        return ExactScalar(self.field, dict(terms), den)

    def is_zero(self, x) -> bool:
        return x.is_zero()

    def inv(self, x):
        return x.inv()

    def scale(self, x, q):
        """x times the int or Fraction q, on the integer numerators.

        With q = a/b in lowest terms and x canonical, the only common
        factors left are gcd(den, a) and gcd(b, numerators)."""
        a, b = q.numerator, q.denominator
        if not a or not x.terms:
            return self._zero
        ga = math.gcd(x.den, a)
        gb = math.gcd(b, *x.terms.values()) if b != 1 else 1
        a //= ga
        return ExactScalar(self.field,
                           {key: v // gb * a for key, v in x.terms.items()},
                           x.den // ga * (b // gb))

    def unit_lift(self, series: dict, den: int, K: int) -> dict:
        """``{key: sum over (n, v, x) of x v / (den (2 pi i)^(K+n))}``
        for ``series = {key: [(n, v, x), ...]}``, v an int and x a scalar;
        a key whose sum is zero is left out.

        (2 pi i)^(-(K+n)) = pi^(-(K+n)) i^(-(K+n)) / 2^(K+n): each term of
        x is turned by a power of i, through the basis-product table, and
        moved to its power of pi, and the numerators of one key are added
        in integers over one denominator, den times 2^(K + its largest n)
        times the lcm of its x's denominators, and cancelled once.  The
        turned terms of an x are built once per (x, n): a shared x, such
        as a root of unity, is turned once per call."""
        table = self.field.basis_products
        product = self.field.basis_product
        # per id(x): {n: [((pi power, exps), int)]}
        placed: Dict[int, Dict[int, list]] = {}

        def place(x, n):
            slots = placed.get(id(x))
            if slots is None:
                slots = placed[id(x)] = {}
            terms = slots.get(n)
            if terms is None:
                unit, sign = self._turns[(K + n) % 4]
                terms = slots[n] = [
                    ((k - K - n, e2), a * s * sign)
                    for (k, e), a in x.terms.items()
                    for e2, s in table.get((e, unit)) or product(e, unit)]
            return terms

        cancel = self._zero._cancel  # reads only the field of its scalar
        out = {}
        for key, parts in series.items():
            top, lcm = 0, 1
            for n, _, x in parts:
                top = max(top, n)
                if x.den != 1:
                    lcm = math.lcm(lcm, x.den)
            # (turned terms, numerator) per part, the numerators over the
            # key's denominator; their gcd with it is taken out first
            picked = [(place(x, n), v * (1 << (top - n)) * (lcm // x.den))
                      for n, v, x in parts]
            dk = den * lcm << (K + top)
            g = math.gcd(dk, *(c for _, c in picked))
            acc: Dict[tuple, int] = {}
            get = acc.get
            for terms, c in picked:
                c //= g
                for k2, a in terms:
                    acc[k2] = get(k2, 0) + a * c
            if 0 in acc.values():
                acc = {k2: a for k2, a in acc.items() if a}
            if acc:
                out[key] = cancel(acc, dk // g)
        return out

    def _over_lcm(self, terms: dict):
        """``(den, [(exps, degree, [(k, basis exps, numerator)])])``: the
        series terms with every coefficient brought over ``den``, the least
        common denominator of the coefficients."""
        N = self.N
        den = math.lcm(*(c.den for c in terms.values()))
        out = []
        for e, c in terms.items():
            if c.field.N != N:
                raise ValueError("mixed cyclotomic orders")
            s = den // c.den
            out.append((e, sum(e), [(k, x, v * s)
                                    for (k, x), v in c.terms.items()]))
        return den, out

    def mul_terms(self, pairs, trunc) -> dict:
        """The sum over ``(a, b)`` in the list `pairs` of the products of
        two series term maps ``{exps: scalar}``, truncated at ``trunc`` (a
        ``series.Truncation``), with no zero coefficient.

        Every factor is brought over one denominator, so the convolutions
        run on integer numerators, added over the lcm of the products'
        denominators; every output coefficient is cancelled once.  One
        pair whose `a` is the constant 1 is `b` truncated, its
        coefficients kept as they are.
        """
        if len(pairs) == 1 and len(pairs[0][0]) == 1:
            (e, x), = pairs[0][0].items()
            if not any(e) and x == self._one:
                return {e: c for e, c in pairs[0][1].items()
                        if trunc.keeps(e)}
        field = self.field
        table = field.basis_products
        product = field.basis_product
        total, box = trunc.total, trunc.box
        read = [(self._over_lcm(a), self._over_lcm(b)) for a, b in pairs]
        den = math.lcm(*(da * db for (da, _), (db, _) in read))
        acc: Dict[tuple, Dict[tuple, int]] = {}
        for (da, a_items), (db, b_items) in read:
            s = den // (da * db)
            for ea, sa, ta in a_items:
                if s != 1:
                    ta = [(k, x, v * s) for k, x, v in ta]
                for eb, sb, tb in b_items:
                    if sa + sb > total:
                        continue
                    e = tuple(map(add, ea, eb))
                    if box is not None and not all(map(le, e, box)):
                        continue
                    out = acc.get(e)
                    if out is None:
                        out = acc[e] = {}
                    get = out.get
                    for ka, xa, va in ta:
                        for kb, xb, vb in tb:
                            v = va * vb
                            k = ka + kb
                            for x, m in (table.get((xa, xb))
                                         or product(xa, xb)):
                                cur = get((k, x))
                                out[k, x] = v * m if cur is None \
                                    else cur + v * m
        # each coefficient cancelled once, without the zero numerators and
        # the zero coefficients
        cancel = self._zero._cancel  # reads only the field of its scalar
        result = {}
        for e, out in acc.items():
            if 0 in out.values():
                out = {key: v for key, v in out.items() if v}
            if out:
                result[e] = cancel(out, den)
        return result


# the least working precision, in bits: the zero tolerance 2^(12 - p)
# is 2^-12 there, and at 12 bits it is 1, so that every term reads as zero
MIN_PRECISION = 24


class NumericRing:
    """Arbitrary-precision complex floats behind the same interface, at
    ``MIN_PRECISION`` bits or more (ValueError below)."""

    exact = False

    def __init__(self, precision: int = 128):
        if precision < MIN_PRECISION:
            raise ValueError(f"precision must be at least {MIN_PRECISION} "
                             f"bits")
        self.precision = precision
        ctx = MPContext()
        ctx.prec = precision
        self.ctx = ctx
        self.zero_tol = ctx.mpf(2.0 ** (-precision + 12))
        # one shared zero and one: an mpc is never changed in place
        self._zero, self._one = ctx.mpc(0), ctx.mpc(1)
        self._i = self.root_of_unity(Fraction(1, 4))

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def from_fraction(self, q):
        """The int, Fraction or Gaussian rational q as a scalar."""
        if isinstance(q, GaussianRational):
            return self.from_fraction(q.re) + self._i \
                * self.from_fraction(q.im)
        q = Fraction(q)
        return self.ctx.mpc(self.ctx.mpf(q.numerator) / self.ctx.mpf(q.denominator))

    def root_of_unity(self, q):
        """e^{2 pi i q} for an exact q: a root of unity for rational q, and
        for a Gaussian rational q rounded once, in the exponential."""
        if isinstance(q, GaussianRational):
            return self.ctx.exp(2j * self.ctx.pi * self.from_fraction(q))
        return self.ctx.expjpi(2 * self.from_fraction(q))

    def root_minus_one_inverse(self, q):
        """1/(e^{2 pi i q} - 1) for an exact q that is not an integer."""
        return 1 / (self.root_of_unity(q) - self.one())

    def two_pi_i(self):
        return self.ctx.mpc(0, 2) * self.ctx.pi

    def detach(self, x) -> tuple:
        """x as plain data that holds no context: mpmath's raw pair."""
        return x._mpc_

    def attach(self, data):
        """The scalar that ``detach`` made `data` from, in this ring."""
        return self.ctx.make_mpc(data)

    def is_zero(self, x) -> bool:
        """|x| <= the zero tolerance.  |x| >= max(|Re x|, |Im x|), so a
        part above it decides, before the modulus is taken."""
        tol = self.zero_tol
        if abs(x.real) > tol or abs(x.imag) > tol:
            return False
        return abs(x) <= tol

    def inv(self, x):
        return 1 / x

    def scale(self, x, q):
        """x times the int or Fraction q."""
        return x * q.numerator / q.denominator

    def unit_lift(self, series: dict, den: int, K: int) -> dict:
        """``{key: sum over (n, v, x) of x v / (den (2 pi i)^(K+n))}``
        for ``series = {key: [(n, v, x), ...]}``, as ``ExactRing.unit_lift``.
        v / (den (2 pi i)^(K+n)) is rounded once per (n, v) of a call, from
        (2 pi i)^(-K) times n factors (2 pi i)^(-1), and its product with x
        once per term."""
        step = 1 / self.two_pi_i()
        lifts = [step ** K]
        i = self._i
        weights: dict = {}  # (n, v) -> v / (den (2 pi i)^(K+n))
        out = {}
        for key, parts in series.items():
            total = None
            for n, v, x in parts:
                f = weights.get((n, v))
                if f is None:
                    while len(lifts) <= n:
                        lifts.append(lifts[-1] * step)
                    # a Laurent term has n < 0, and K + n >= 0
                    lift = lifts[n] if n >= 0 else step ** (K + n)
                    if type(v) is int:
                        f = self.scale(lift, Fraction(v, den))
                    else:
                        f = self.scale(lift, Fraction(v.re, den)) \
                            + self.scale(lift * i, Fraction(v.im, den))
                    weights[n, v] = f
                term = f * x
                total = term if total is None else total + term
            out[key] = total
        return out

    def mul_terms(self, pairs, trunc) -> dict:
        """The sum over ``(a, b)`` in `pairs` of the products of two series
        term maps, as ``ExactRing.mul_terms``, without the coefficients
        that read as zero.  Each product is the truncated convolution
        ``series.convolve``, the terms of `a` outer; the products are added
        in the order of `pairs`."""
        acc = {}
        for a, b in pairs:
            p = convolve(a, [(e, c, sum(e)) for e, c in b.items()], trunc)
            if not acc:
                acc = p
                continue
            for e, c in p.items():
                cur = acc.get(e)
                acc[e] = c if cur is None else cur + c
        return {e: c for e, c in acc.items() if not self.is_zero(c)}

    def magnitude(self, x) -> float:
        return float(abs(x))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _format_cyc(c: Dict[int, Fraction]) -> str:
    """A coefficient ``{j: q}``, the sum of q * zeta_N^j: a rational, or
    a z-polynomial in parentheses by ascending j."""
    if c.keys() == {0}:
        return str(c[0])
    parts = []
    for j, q in sorted(c.items()):
        if j == 0:
            parts.append(str(q))
        else:
            zp = "z" if j == 1 else f"z^{j}"
            parts.append(zp if q == 1 else f"{q}*{zp}")
    return "(" + " + ".join(parts) + ")"


def format_scalar(x: ExactScalar) -> str:
    """Canonical string, descending pi powers, rationals in lowest terms."""
    if not x.terms:
        return "0"
    field = x.field
    poly: Dict[int, Dict[int, Fraction]] = {}
    for (k, e), v in x.terms.items():
        poly.setdefault(k, {})[field.zeta_exponent(e)] = Fraction(v, x.den)
    parts = []
    for k in sorted(poly, reverse=True):
        c = poly[k]
        if k == 0:
            parts.append(_format_cyc(c))
            continue
        pp = "pi" if k == 1 else f"pi^{k}"
        if c.keys() == {0}:
            # [-][|numerator|*]pi^k[/denominator]
            q = c[0]
            num = abs(q.numerator)
            term = ("-" if q < 0 else "") + ("" if num == 1 else f"{num}*") \
                + pp + ("" if q.denominator == 1 else f"/{q.denominator}")
        else:
            term = f"{_format_cyc(c)}*{pp}"
        parts.append(term)
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


# a separator or a pi outside the parentheses of a coefficient, which do
# not nest: no ")" follows before a "("
_OUTSIDE = r"(?![^(]*\))"


def _split_terms(text: str):
    """Split at the ' + ' / ' - ' separators outside parentheses, yielding
    (sign, term)."""
    pieces = re.split(r" ([+-]) " + _OUTSIDE, text)
    return [(1, pieces[0].strip())] + [
        (1 if sign == "+" else -1, piece.strip())
        for sign, piece in zip(pieces[1::2], pieces[2::2])]


def _parse_cyc(field: CyclotomicField, text: str) -> ExactScalar:
    """A coefficient as ``_format_cyc`` writes it, perhaps negated."""
    text = text.strip()
    neg = text.startswith("-(")
    total = field.zero()
    for sign, piece in _split_terms((text[1:] if neg else text).strip("()")):
        # q*z^j, with q = 1 or -1 written as nothing or "-", or a rational
        z = re.fullmatch(r"(-?)(.*?)\*?z(?:\^(\d+))?", piece)
        if z is None:
            total = total + field.from_fraction(Fraction(piece) * sign)
        else:
            coeff = Fraction(z[2] or 1) * (-sign if z[1] else sign)
            total = total + field.zeta_pow(int(z[3] or 1)) * coeff
    return -total if neg else total


def parse_scalar(ring: ExactRing, text: str) -> ExactScalar:
    """Parse the output of format_scalar back into an ExactScalar."""
    text = text.strip()
    field = ring.field
    total = field.zero()
    for sign, piece in _split_terms(text):
        if not piece or piece == "0":
            continue
        pi = re.search("pi" + _OUTSIDE, piece)
        if pi is None:
            total = total + _parse_cyc(field, piece) * sign
            continue
        # [coefficient][*]pi[^k][/den]
        head = piece[:pi.start()].rstrip(" *")
        power = re.fullmatch(r"(?:\^(-?\d+))?(?:/(.+))?",
                             piece[pi.end():].strip())
        if power is None:
            raise ValueError(f"unreadable power of pi in {piece!r}")
        coeff = field.from_fraction(-1 if head else 1) \
            if head in ("", "-") else _parse_cyc(field, head)
        pi_k = ExactScalar(field, {(int(power[1] or 1), field.zero_exps): 1})
        total = total + coeff * pi_k * (Fraction(sign)
                                        / Fraction(power[2] or 1))
    return total
