"""Coefficient rings for all series work.

Two interchangeable rings live here behind one small protocol:

* ``ExactRing`` -- Laurent polynomials in the transcendental symbol ``pi``
  with coefficients in Q(zeta_N).  A value is one flat map
  ``{(pi power, cyclotomic basis exponents): int}`` of numerators over one
  shared positive denominator, kept in lowest terms after every operation;
  products of basis monomials come from a table that the field fills as
  they are first met.
  Only pi-monomials with a nonzero Q(zeta_N) coefficient are invertible,
  which is every inverse the evaluators take; any other inverse raises
  ``NotInvertible``.
* ``NumericRing`` -- arbitrary-precision complex floats (mpmath), with the
  tolerance conventions needed by the numeric evaluation paths.

The ring interface used by the rest of the package: ``zero``, ``one``,
``from_fraction``, ``root_of_unity`` (e^{2 pi i q}), ``two_pi_i``,
``is_zero``, ``inv``, ``scale`` (a scalar times a rational, with no product
of scalars), ``mul_terms`` (the truncated product of two series term
maps), ``detach``/``attach`` (a scalar as plain data that holds no field
or context, and back), and the flag ``exact``.  The exact ring's
``mul_terms`` convolves integer numerators over one denominator per
factor and builds one ``ExactScalar`` per output coefficient.  Every
structural decision (which forms are singular, which are equal, which
coefficient pivots a division) is taken from exact rational data outside
the ring, so the exact ring has no float size estimate; only
``NumericRing`` has ``magnitude``, which sizes division residuals and
tolerances.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, le
from typing import Dict

from mpmath.ctx_mp import MPContext

from .cyclotomic import CycElt, CyclotomicField
from .errors import NotInvertible

class ExactScalar:
    """Element of Q(zeta_N)[pi, 1/pi] as ``{(k, exps): int}`` over ``den``.

    The key ``(k, exps)`` stands for pi^k times the basis monomial ``exps``
    of the field, and its value is the integer numerator of that
    coefficient; every coefficient shares the one positive denominator
    ``den``.  The form is canonical: no numerator is zero and
    ``gcd(den, *numerators) == 1`` (zero is ``{}`` over 1), so equality
    and hashing compare the dict and ``den`` directly.
    """

    __slots__ = ("field", "terms", "den")

    def __init__(self, field: CyclotomicField, terms: Dict[tuple, int],
                 den: int = 1):
        self.field = field
        self.terms = terms
        self.den = den

    @classmethod
    def from_pi_poly(cls, field: CyclotomicField, poly: Dict[int, CycElt]
                     ) -> "ExactScalar":
        # over the least common denominator of coefficients in lowest
        # terms, the numerators have no factor in common with it
        coeffs = {(k, e): q for k, c in poly.items()
                  for e, q in c.coeffs.items()}
        den = math.lcm(*(q.denominator for q in coeffs.values()))
        return cls(field, {key: q.numerator * (den // q.denominator)
                           for key, q in coeffs.items()}, den)

    def is_zero(self) -> bool:
        return not self.terms

    def pi_poly(self) -> Dict[int, CycElt]:
        """The Laurent coefficients ``{k: CycElt}``, by ascending k."""
        grouped: Dict[int, dict] = {}
        den = self.den
        for (k, e), v in self.terms.items():
            grouped.setdefault(k, {})[e] = Fraction(v, den)
        return {k: CycElt(self.field, grouped[k]) for k in sorted(grouped)}

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, ExactScalar):
            if other.field.N != self.field.N:
                raise ValueError("mixed cyclotomic orders")
            return other
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            if f == 0:
                return ExactScalar(self.field, {})
            return ExactScalar(self.field, {(0, self.field.zero_exps):
                                            f.numerator}, f.denominator)
        if isinstance(other, CycElt):
            return ExactScalar.from_pi_poly(self.field, {0: other})
        return NotImplemented

    def _cancel(self, terms: Dict[tuple, int], den: int) -> "ExactScalar":
        """The canonical value of ``terms / den``, numerators nonzero."""
        if not terms:
            return ExactScalar(self.field, terms)
        if den != 1:
            g = math.gcd(den, *terms.values())
            if g != 1:
                den //= g
                terms = {key: v // g for key, v in terms.items()}
        return ExactScalar(self.field, terms, den)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.terms:
            return self
        if not self.terms:
            return other
        da, db = self.den, other.den
        if da == db:
            out, sb = dict(self.terms), 1
        else:
            g = math.gcd(da, db)
            sa, sb = db // g, da // g
            out = {key: v * sa for key, v in self.terms.items()}
            da *= sa
        get = out.get
        for key, v in other.terms.items():
            v *= sb
            cur = get(key)
            if cur is None:
                out[key] = v
            elif cur + v:
                out[key] = cur + v
            else:
                del out[key]
        return self._cancel(out, da)

    __radd__ = __add__

    def __neg__(self):
        return ExactScalar(self.field,
                           {key: -v for key, v in self.terms.items()},
                           self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        field = self.field
        table = field.basis_products
        out: Dict[tuple, int] = {}
        get = out.get
        for (ka, ea), va in self.terms.items():
            for (kb, eb), vb in other.terms.items():
                v = va * vb
                k = ka + kb
                for e, m in (table.get((ea, eb))
                             or field.basis_product(ea, eb)):
                    cur = get((k, e))
                    out[k, e] = v * m if cur is None else cur + v * m
        return self._cancel({key: v for key, v in out.items() if v},
                            self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inv()

    def inv(self):
        """Inverse of c * pi^k for nonzero c in Q(zeta_N)."""
        if self.is_zero():
            raise ZeroDivisionError("inverting zero scalar")
        poly = self.pi_poly()
        if len(poly) != 1:
            raise NotInvertible(f"not a pi-monomial: {self}")
        (k, c), = poly.items()
        return ExactScalar.from_pi_poly(self.field, {-k: c.inv()})

    def __pow__(self, n: int):
        if n < 0:
            return self.inv() ** (-n)
        out = ExactScalar(self.field, {(0, self.field.zero_exps): 1})
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.den == other.den and self.terms == other.terms

    def __hash__(self):
        return hash((self.field.N, self.den, frozenset(self.terms.items())))

    # -- numerics ---------------------------------------------------------

    def embed(self, ctx):
        pi = ctx.pi
        out = ctx.mpc(0)
        for k, c in self.pi_poly().items():
            out += c.embed(ctx) * pi**k
        return out

    def __repr__(self):
        return format_scalar(self)


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
        self._two_pi_i = ExactScalar.from_pi_poly(
            self.field, {1: self.field.zeta_pow(N // 4) * 2})

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def from_fraction(self, q):
        q = Fraction(q)
        if q == 0:
            return self._zero
        return ExactScalar(self.field, {(0, self.field.zero_exps):
                                        q.numerator}, q.denominator)

    def from_cyc(self, c: CycElt):
        return ExactScalar.from_pi_poly(self.field, {0: c})

    def root_of_unity(self, q):
        """e^{2 pi i q} for rational q."""
        if Fraction(q).denominator == 1:
            return self._one
        return self.from_cyc(self.field.root_of_unity(q))

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

    def mul_terms(self, a: dict, b: dict, trunc) -> dict:
        """The product of two series term maps ``{exps: scalar}``, truncated
        at ``trunc`` (a ``series.Truncation``), with no zero coefficient.

        Both factors are brought over one denominator each, so the
        convolution runs on integer numerators; every output coefficient is
        cancelled once, over the product of the two denominators.
        """
        field = self.field
        table = field.basis_products
        product = field.basis_product
        total, box = trunc.total, trunc.box
        da, a_items = self._over_lcm(a)
        db, b_items = self._over_lcm(b)
        acc: Dict[tuple, Dict[tuple, int]] = {}
        for ea, sa, ta in a_items:
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
                            out[k, x] = v * m if cur is None else cur + v * m
        den = da * db
        cancel = self._zero._cancel  # reads only the field of its scalar
        result = {}
        for e, out in acc.items():
            out = {key: v for key, v in out.items() if v}
            if out:
                result[e] = cancel(out, den)
        return result


class NumericRing:
    """Arbitrary-precision complex floats behind the same interface."""

    exact = False

    def __init__(self, precision: int = 128):
        self.precision = precision
        ctx = MPContext()
        ctx.prec = precision
        self.ctx = ctx
        self.zero_tol = 2.0 ** (-precision + 12)

    def zero(self):
        return self.ctx.mpc(0)

    def one(self):
        return self.ctx.mpc(1)

    def from_fraction(self, q):
        q = Fraction(q)
        return self.ctx.mpc(self.ctx.mpf(q.numerator) / self.ctx.mpf(q.denominator))

    def root_of_unity(self, q):
        q = Fraction(q)
        return self.ctx.expjpi(2 * self.from_fraction(q))

    def exp_2pii_times(self, c):
        """e^{2 pi i c} for an arbitrary complex constant c."""
        return self.ctx.exp(2j * self.ctx.pi * self.ctx.mpc(c))

    def two_pi_i(self):
        return self.ctx.mpc(0, 2) * self.ctx.pi

    def detach(self, x) -> tuple:
        """x as plain data that holds no context: mpmath's raw pair."""
        return x._mpc_

    def attach(self, data):
        """The scalar that ``detach`` made `data` from, in this ring."""
        return self.ctx.make_mpc(data)

    def is_zero(self, x) -> bool:
        return abs(x) <= self.zero_tol

    def inv(self, x):
        return 1 / x

    def scale(self, x, q):
        """x times the int or Fraction q."""
        return x * q.numerator / q.denominator

    def mul_terms(self, a: dict, b: dict, trunc) -> dict:
        """The product of two series term maps ``{exps: scalar}``, truncated
        at ``trunc`` (a ``series.Truncation``), without the coefficients
        that read as zero."""
        total, box = trunc.total, trunc.box
        out: dict = {}
        big_items = [(e, sum(e), c) for e, c in b.items()]
        for ea, ca in a.items():
            da = sum(ea)
            for eb, db, cb in big_items:
                if da + db > total:
                    continue
                e = tuple(x + y for x, y in zip(ea, eb))
                if box is not None and not all(map(le, e, box)):
                    continue
                cur = out.get(e)
                p = ca * cb
                out[e] = p if cur is None else cur + p
        return {e: c for e, c in out.items() if not self.is_zero(c)}

    def magnitude(self, x) -> float:
        return float(abs(x))


def embed(x: ExactScalar, precision: int = 128):
    """Numeric value of an exact scalar at the requested precision (bits)."""
    ctx = MPContext()
    ctx.prec = precision
    return x.embed(ctx)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _format_cyc(c: CycElt) -> str:
    if c.is_rational():
        return str(c.rational_value())
    parts = []
    for j, q in sorted(c.as_zeta_poly().items()):
        if j == 0:
            parts.append(str(q))
        else:
            zp = "z" if j == 1 else f"z^{j}"
            parts.append(zp if q == 1 else f"{q}*{zp}")
    return "(" + " + ".join(parts) + ")"


def format_scalar(x: ExactScalar) -> str:
    """Canonical string, descending pi powers, rationals in lowest terms."""
    poly = x.pi_poly()
    if not poly:
        return "0"
    parts = []
    for k in sorted(poly, reverse=True):
        c = poly[k]
        if k == 0:
            parts.append(_format_cyc(c))
            continue
        pp = "pi" if k == 1 else f"pi^{k}"
        if c.is_rational():
            q = c.rational_value()
            if q == 1:
                term = pp
            elif q == -1:
                term = f"-{pp}"
            elif q.denominator == 1:
                term = f"{q}*{pp}"
            elif q.numerator == 1:
                term = f"{pp}/{q.denominator}"
            elif q.numerator == -1:
                term = f"-{pp}/{q.denominator}"
            else:
                term = f"{q.numerator}*{pp}/{q.denominator}"
        else:
            term = f"{_format_cyc(c)}*{pp}"
        parts.append(term)
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


def _split_terms(text: str):
    """Split at top-level ' + ' / ' - ' separators, yielding (sign, term)."""
    out = []
    depth = 0
    cur = []
    sign = 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if depth == 0 and ch in "+-" and i > 0 and i + 1 < n \
                and text[i - 1] == " " and text[i + 1] == " ":
            out.append((sign, "".join(cur).strip()))
            sign = 1 if ch == "+" else -1
            cur = []
            i += 2
            continue
        cur.append(ch)
        i += 1
    out.append((sign, "".join(cur).strip()))
    return out


def _parse_cyc(field: CyclotomicField, text: str) -> CycElt:
    text = text.strip()
    neg = False
    if text.startswith("-("):
        neg = True
        text = text[1:]
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    total = field.zero()
    for sign, piece in _split_terms(text):
        if not piece:
            continue
        if "z" in piece:
            if "*" in piece:
                coeff_s, zs = piece.split("*", 1)
                coeff = Fraction(coeff_s)
            else:
                zs = piece
                coeff = Fraction(-1) if zs.startswith("-") else Fraction(1)
                zs = zs.lstrip("-")
            j = 1 if zs.strip() == "z" else int(zs.strip()[2:])
            total = total + field.zeta_pow(j) * (coeff * sign)
        else:
            total = total + field.from_fraction(Fraction(piece) * sign)
    return -total if neg else total


def _find_top_level(text: str, token: str):
    depth = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and text.startswith(token, i):
            return i
    return None


def parse_scalar(ring: ExactRing, text: str) -> ExactScalar:
    """Parse the output of format_scalar back into an ExactScalar."""
    text = text.strip()
    field = ring.field
    poly: Dict[int, CycElt] = {}

    def add(k, c):
        poly[k] = poly.get(k, field.zero()) + c

    for sign, piece in _split_terms(text):
        if not piece or piece == "0":
            continue
        idx = _find_top_level(piece, "pi")
        if idx is None:
            add(0, _parse_cyc(field, piece) * sign)
            continue
        head = piece[:idx].rstrip()
        tail = piece[idx + 2:].strip()
        if head.endswith("*"):
            head = head[:-1].rstrip()
        k = 1
        denom = Fraction(1)
        if tail.startswith("^"):
            pow_s, _, rest = tail[1:].partition("/")
            k = int(pow_s)
            if rest:
                denom = Fraction(rest)
        elif tail.startswith("/"):
            denom = Fraction(tail[1:])
        if head == "":
            coeff = field.one()
        elif head == "-":
            coeff = field.from_fraction(-1)
        else:
            coeff = _parse_cyc(field, head)
        add(k, coeff * (Fraction(sign) / denom))
    return ExactScalar.from_pi_poly(field, poly)
