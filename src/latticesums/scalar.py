"""Coefficient rings for all series work, and exact-scalar serialization.

Two interchangeable rings live here behind one small protocol:

* ``ExactRing`` -- Laurent polynomials in the transcendental symbol ``pi``
  with coefficients in Q(zeta_N), as ``ExactScalar`` values (defined in
  ``cyclotomic`` and re-exported here): one flat map ``{(pi power,
  cyclotomic basis exponents): int}`` of numerators over one shared
  positive denominator, kept in lowest terms after every operation;
  products of basis monomials come from a table that the field fills as
  they are first met, and a product by a unit monomial (a one-term
  scalar, or a root of unity through ``times_root``) moves exponents
  through the field's rows instead.  Only pi-monomials with a nonzero Q(zeta_N)
  coefficient are invertible; any other inverse raises ``NotInvertible``.
  The evaluators invert no scalar: the one quotient they need,
  1/(e^{2 pi i q} - 1), is built from q in closed form.
* ``NumericRing`` -- arbitrary-precision complex floats (mpmath), with the
  tolerance conventions needed by the numeric evaluation paths.  Every
  ring of one precision reads one shared mpmath context, and no ring
  sets its precision.  The integer-fed operations sum on the scalars'
  integer mantissas (``mantissas``) and round once per output
  (``from_mantissas``): ``unit_lift`` once per coefficient, whatever the
  order of its parts, and ``kernel.kernel_parts`` once per part.

The ring interface used by the rest of the package: ``zero``, ``one``,
``from_fraction`` and ``root_of_unity`` (e^{2 pi i q}), the one road from
an exact constant q, a Fraction or (in the numeric ring) a Gaussian
rational, to a scalar (exact mode refuses non-real constants before any
ring is built, so the exact ring reads real ones only), ``times_root``
(x e^{2 pi i q}: in the exact ring each term of x moves by the exponents
of the root, which is never built, and in the numeric ring x times
``root_of_unity(q)``, each q rounded once per ring),
``root_minus_one_inverse`` (1/(e^{2 pi i q} - 1) for q not an integer,
the kernels' one quotient),
``two_pi_i``, ``is_zero``, ``inv``, ``scale`` (a scalar times a
rational, with no product of scalars), the two series operations
``mul_terms`` (a sum of truncated products of two series term maps: one
series product, or a sum of series each times a polynomial over Q) and
``unit_lift`` (coefficients from parts (m, v, x), an int numerator v
over one int denominator times a scalar x over (2 pi i)^m),
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
from typing import Dict, Tuple

from mpmath.ctx_mp import MPContext
from mpmath.libmp import (from_man_exp, fzero, mpf_pi, mpf_pow_int,
                          mpf_shift, round_nearest)

from .cyclotomic import CyclotomicField, ExactScalar
from .errors import NonFinite
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

    def times_root(self, x, q):
        """x e^{2 pi i q} for rational q, with no root built: each term of
        x moves by the exponents of zeta_N^(qN) (``CyclotomicField.moved``),
        over x's denominator, with no cancel."""
        field = self.field
        exps = field._unreduced(field._exponent(q))
        return ExactScalar(field, field.moved(x.terms, exps), x.den)

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

    def unit_lift(self, series: dict, den: int) -> dict:
        """``{key: sum over (m, v, x) of x v / (den (2 pi i)^m)}`` for
        ``series = {key: [(m, v, x), ...]}``, m >= 0 an int, v an int and x
        a scalar; a key whose sum is zero is left out.

        (2 pi i)^(-m) = pi^(-m) i^(-m) / 2^m: each term of x is turned by
        a power of i, through the basis-product table, and moved to its
        power of pi, and the numerators of one key are added in integers
        over one denominator, den times 2^(its largest m) times the lcm of
        its x's denominators, and cancelled once.  The turned terms of an
        x are built once per (x, m): a shared x is turned once per call."""
        table = self.field.basis_products
        product = self.field.basis_product
        # per id(x): {m: [((pi power, exps), int)]}
        placed: Dict[int, Dict[int, list]] = {}

        def place(x, m):
            slots = placed.get(id(x))
            if slots is None:
                slots = placed[id(x)] = {}
            terms = slots.get(m)
            if terms is None:
                unit, sign = self._turns[m % 4]
                terms = slots[m] = [
                    ((k - m, e2), a * s * sign)
                    for (k, e), a in x.terms.items()
                    for e2, s in table.get((e, unit)) or product(e, unit)]
            return terms

        cancel = self._zero._cancel  # reads only the field of its scalar
        out = {}
        for key, parts in series.items():
            top, lcm = 0, 1
            for m, _, x in parts:
                top = max(top, m)
                if x.den != 1:
                    lcm = math.lcm(lcm, x.den)
            # (turned terms, numerator) per part, the numerators over the
            # key's denominator; their gcd with it is taken out first
            picked = [(place(x, m), v * (1 << (top - m)) * (lcm // x.den))
                      for m, v, x in parts]
            dk = den * lcm << top
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
        denominators; every output coefficient is cancelled once.
        """
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

# one mpmath context per precision, shared by every NumericRing of that
# precision: its precision is set here, once, when it is made
_CONTEXTS: Dict[int, MPContext] = {}


def _context(precision: int) -> MPContext:
    ctx = _CONTEXTS.get(precision)
    if ctx is None:
        ctx = MPContext()
        ctx.prec = precision
        _CONTEXTS[precision] = ctx
    return ctx


def _mantissa(v: tuple, x) -> Tuple[int, int]:
    """(n, e) with n 2^e the mpf tuple v, part of the scalar x: (0, 0) for
    zero, and NonFinite for an infinity or a NaN, which mpmath stores with
    mantissa 0 as well."""
    sign, man, exp, _ = v
    if not man:
        if v != fzero:
            raise NonFinite(f"non-finite numeric scalar {x}")
        return 0, 0
    return (-man if sign else man), exp


class NumericRing:
    """Arbitrary-precision complex floats behind the same interface, at
    ``MIN_PRECISION`` bits or more (ValueError below).

    Every ring of one precision reads the same mpmath context
    (``_context``), made once per precision; no ring ever sets its
    ``prec``.  The two series operations that read integers, ``unit_lift``
    and (through ``mantissas`` and ``from_mantissas``) the kernel parts,
    sum each output exactly on the scalars' integer mantissas and round it
    once."""

    exact = False

    def __init__(self, precision: int = 128):
        if precision < MIN_PRECISION:
            raise ValueError(f"precision must be at least {MIN_PRECISION} "
                             f"bits")
        self.precision = precision
        ctx = self.ctx = _context(precision)
        self.zero_tol = ctx.mpf(2.0 ** (-precision + 12))
        # one shared zero and one: an mpc is never changed in place
        self._zero, self._one = ctx.mpc(0), ctx.mpc(1)
        self._roots: Dict[object, object] = {}  # exact q -> e^{2 pi i q}
        self._i = self.root_of_unity(Fraction(1, 4))
        # m -> (2 pi)^(-m) as (mantissa, exponent), rounded once per m
        self._lifts: Dict[int, Tuple[int, int]] = {}

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
        for a Gaussian rational q rounded once, in the exponential; each
        q is rounded once per ring."""
        got = self._roots.get(q)
        if got is None:
            if isinstance(q, GaussianRational):
                got = self.ctx.exp(2j * self.ctx.pi * self.from_fraction(q))
            else:
                got = self.ctx.expjpi(2 * self.from_fraction(q))
            self._roots[q] = got
        return got

    def times_root(self, x, q):
        """x e^{2 pi i q} for an exact q, as x times ``root_of_unity(q)``."""
        return x * self.root_of_unity(q)

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

    def mantissas(self, x) -> Tuple[int, int, int]:
        """``(re, im, e)`` with x = (re + im i) 2^e exactly, re and im ints:
        mpmath's raw pair on the lesser of its two exponents (0 for zero).
        An infinite or NaN part raises NonFinite."""
        re, ei = _mantissa(x._mpc_[0], x)
        im, e = _mantissa(x._mpc_[1], x)
        if not im:
            return re, 0, ei
        if not re:
            return 0, im, e
        if ei <= e:
            return re, im << (e - ei), ei
        return re << (ei - e), im, e

    def from_mantissas(self, re: int, im: int, e: int, den: int = 1):
        """(re + im i) 2^e / den, re, im and e ints and den a positive int,
        each part rounded once, to nearest, at the ring's precision.

        As mpmath's ``mpf_div``: the quotient is taken to 3 bits more than
        the precision, and a nonzero remainder sets one more, lowest bit,
        so that rounding the quotient rounds the exact value."""
        prec = self.precision
        dbits = den.bit_length()

        def part(n):
            if not n:
                return fzero
            if den == 1:
                return from_man_exp(n, e, prec, round_nearest)
            shift = max(prec + 3 + dbits - n.bit_length(), 0)
            q, rem = divmod(abs(n) << shift, den)
            if rem:
                q, shift = (q << 1) | 1, shift + 1
            return from_man_exp(q if n > 0 else -q, e - shift, prec,
                                round_nearest)

        return self.ctx.make_mpc((part(re), part(im)))

    def _lift(self, m: int) -> Tuple[int, int]:
        """(2 pi)^(-m) as (mantissa, exponent), rounded once per m and
        ring."""
        got = self._lifts.get(m)
        if got is None:
            prec = self.precision
            two_pi = mpf_shift(mpf_pi(prec + 20), 1)
            _, man, exp, _ = mpf_pow_int(two_pi, -m, prec, round_nearest)
            got = self._lifts[m] = (man, exp)
        return got

    def unit_lift(self, series: dict, den: int) -> dict:
        """``{key: sum over (m, v, x) of x v / (den (2 pi i)^m)}`` for
        ``series = {key: [(m, v, x), ...]}``, as ``ExactRing.unit_lift``,
        v an int or a GaussianRational with int parts.

        (2 pi i)^(-m) = (2 pi)^(-m) i^(-m), its real part rounded once per
        m (``_lift``) and its power of i a swap of parts.  Each x is read
        through its integer mantissas (``mantissas``), once per call, and
        each part is the exact product of v, the power and x, so the sum of
        a key's parts is one exact integer sum, divided by den and rounded
        once (``from_mantissas``): a key's value does not depend on the
        order of its parts."""
        weights: dict = {}  # (m, v) -> v (2 pi i)^(-m) as (re, im, exp)
        reads: dict = {}  # id(x) -> x as (re, im, exp)
        out = {}
        for key, parts in series.items():
            re = im = 0
            top = None
            for m, v, x in parts:
                w = weights.get((m, v))
                if w is None:
                    man, exp = self._lift(m)
                    if type(v) is int:
                        a, b = v, 0
                    elif v.re.denominator == v.im.denominator == 1:
                        a, b = v.re.numerator, v.im.numerator
                    else:
                        raise ValueError(f"numerator {v} is not integral")
                    # (a + b i) i^(-m): i^-1 = -i, i^-2 = -1, i^-3 = i
                    a, b = ((a, b), (b, -a), (-a, -b), (-b, a))[m % 4]
                    w = weights[m, v] = (a * man, b * man, exp)
                r = reads.get(id(x))
                if r is None:
                    r = reads[id(x)] = self.mantissas(x)
                wr, wi, we = w
                xr, xi, xe = r
                tr = wr * xr - wi * xi
                ti = wr * xi + wi * xr
                if not (tr or ti):
                    continue
                e = we + xe
                if top is None:
                    re, im, top = tr, ti, e
                elif e >= top:
                    re += tr << (e - top)
                    im += ti << (e - top)
                else:
                    re = (re << (top - e)) + tr
                    im = (im << (top - e)) + ti
                    top = e
            out[key] = self._zero if top is None \
                else self.from_mantissas(re, im, top, den)
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
