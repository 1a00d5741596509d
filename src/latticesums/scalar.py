"""Coefficient rings for all series work.

Two interchangeable rings live here behind one small protocol:

* ``ExactRing`` -- rational functions in the transcendental symbol ``pi``
  with coefficients in Q(zeta_N).  Values are fractions of Laurent
  polynomials in ``pi``; every value produced by the evaluators keeps a
  monomial denominator, so arithmetic stays sparse, and the general
  fraction form is retained so that nonzero elements remain invertible.
* ``NumericRing`` -- arbitrary-precision complex floats (mpmath), with the
  tolerance conventions needed by the numeric evaluation paths.

The ring interface used by the rest of the package: ``zero``, ``one``,
``from_fraction``, ``root_of_unity`` (e^{2 pi i q}), ``two_pi_i``,
``is_zero``, ``inv``, ``magnitude``, and the flag ``exact``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict

from mpmath.ctx_mp import MPContext

from .cyclotomic import CycElt, CyclotomicField

_pivot_ctx = MPContext()
_pivot_ctx.prec = 64


def _strip(poly: Dict[int, CycElt]) -> Dict[int, CycElt]:
    return {k: c for k, c in poly.items() if not c.is_zero()}


def _poly_mul(field, a: Dict[int, CycElt], b: Dict[int, CycElt]):
    out: Dict[int, CycElt] = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = ka + kb
            cur = out.get(k)
            out[k] = ca * cb if cur is None else cur + ca * cb
    return _strip(out)


def _poly_add(a: Dict[int, CycElt], b: Dict[int, CycElt]):
    out = dict(a)
    for k, c in b.items():
        cur = out.get(k)
        out[k] = c if cur is None else cur + c
    return _strip(out)


class ExactScalar:
    """Element of Q(zeta_N)(pi) as a fraction of Laurent polynomials in pi.

    The denominator is reduced away whenever it is a single Laurent term
    (the only shape the evaluators ever create), so in practice ``den`` is
    the constant 1 and all arithmetic is plain sparse Laurent arithmetic.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field: CyclotomicField, num: Dict[int, CycElt],
                 den: Dict[int, CycElt] | None = None, *, normalize: bool = True):
        self.field = field
        self.num = num
        self.den = den if den is not None else {0: field.one()}
        if normalize:
            self._normalize()

    def _normalize(self):
        self.num = _strip(self.num)
        self.den = _strip(self.den)
        if not self.den:
            raise ZeroDivisionError("scalar with zero denominator")
        if not self.num:
            self.den = {0: self.field.one()}
            return
        if len(self.den) == 1:
            (k, c), = self.den.items()
            if k == 0 and c == self.field.one():
                return
            cinv = c.inv()
            self.num = {d - k: cd * cinv for d, cd in self.num.items()}
            self.den = {0: self.field.one()}

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_trivial_den(self) -> bool:
        return len(self.den) == 1 and 0 in self.den and self.den[0] == self.field.one()

    def is_rational(self) -> bool:
        if not self.is_trivial_den():
            return False
        if not self.num:
            return True
        return set(self.num) == {0} and self.num[0].is_rational()

    def rational_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_rational():
            raise ValueError(f"not rational: {self}")
        return self.num[0].rational_value()

    def pi_poly(self) -> Dict[int, CycElt]:
        """The Laurent coefficients, requiring a trivial denominator."""
        if not self.is_trivial_den():
            raise ValueError("scalar has a nontrivial denominator")
        return self.num

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, ExactScalar):
            if other.field.N != self.field.N:
                raise ValueError("mixed cyclotomic orders")
            return other
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            if f == 0:
                return ExactScalar(self.field, {}, normalize=False)
            return ExactScalar(self.field, {0: self.field.from_fraction(f)},
                               normalize=False)
        if isinstance(other, CycElt):
            return ExactScalar(self.field, {0: other})
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == other.den:
            return ExactScalar(self.field, _poly_add(self.num, other.num),
                               dict(self.den))
        num = _poly_add(_poly_mul(self.field, self.num, other.den),
                        _poly_mul(self.field, other.num, self.den))
        den = _poly_mul(self.field, self.den, other.den)
        return ExactScalar(self.field, num, den)

    __radd__ = __add__

    def __neg__(self):
        return ExactScalar(self.field, {k: -c for k, c in self.num.items()},
                           dict(self.den), normalize=False)

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
        num = _poly_mul(self.field, self.num, other.num)
        if self.is_trivial_den() and other.is_trivial_den():
            return ExactScalar(self.field, num, normalize=False)
        den = _poly_mul(self.field, self.den, other.den)
        return ExactScalar(self.field, num, den)

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
        if self.is_zero():
            raise ZeroDivisionError("inverting zero scalar")
        return ExactScalar(self.field, dict(self.den), dict(self.num))

    def __pow__(self, n: int):
        if n < 0:
            return self.inv() ** (-n)
        out = ExactScalar(self.field, {0: self.field.one()}, normalize=False)
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
        if self.den == other.den:
            return self.num == other.num
        left = _poly_mul(self.field, self.num, other.den)
        right = _poly_mul(self.field, other.num, self.den)
        return left == right

    def __hash__(self):
        if not self.is_trivial_den():
            raise TypeError("only normalized scalars are hashable")
        return hash((self.field.N, tuple(sorted((k, c.key())
                                                for k, c in self.num.items()))))

    # -- numerics ---------------------------------------------------------

    def embed(self, ctx):
        pi = ctx.pi
        num = ctx.mpc(0)
        for k, c in self.num.items():
            num += c.embed(ctx) * pi**k
        if self.is_trivial_den():
            return num
        den = ctx.mpc(0)
        for k, c in self.den.items():
            den += c.embed(ctx) * pi**k
        return num / den

    def lift(self, ring: "ExactRing") -> "ExactScalar":
        """Re-express in a larger cyclotomic field (order a multiple)."""
        num = {k: c.lift(ring.field) for k, c in self.num.items()}
        den = {k: c.lift(ring.field) for k, c in self.den.items()}
        return ExactScalar(ring.field, num, den)

    def __repr__(self):
        return format_scalar(self)


# ---------------------------------------------------------------------------
# ring adapters
# ---------------------------------------------------------------------------


class ExactRing:
    """The exact coefficient ring Q(zeta_N)(pi)."""

    exact = True

    def __init__(self, N: int):
        if N % 4 != 0:
            raise ValueError("cyclotomic order must be divisible by 4")
        self.N = N
        self.field = CyclotomicField(N)
        self._zero = ExactScalar(self.field, {}, normalize=False)
        self._one = ExactScalar(self.field, {0: self.field.one()}, normalize=False)
        self._i = self.field.zeta_pow(N // 4)

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def from_fraction(self, q):
        q = Fraction(q)
        if q == 0:
            return self._zero
        return ExactScalar(self.field, {0: self.field.from_fraction(q)},
                           normalize=False)

    def from_cyc(self, c: CycElt):
        return ExactScalar(self.field, {0: c})

    def root_of_unity(self, q):
        """e^{2 pi i q} for rational q."""
        return self.from_cyc(self.field.root_of_unity(q))

    def two_pi_i(self):
        return ExactScalar(self.field, {1: self._i * 2}, normalize=False)

    def pi_pow(self, k: int):
        return ExactScalar(self.field, {k: self.field.one()}, normalize=False)

    def is_zero(self, x, scale=None) -> bool:
        return x.is_zero()

    def inv(self, x):
        return x.inv()

    def magnitude(self, x) -> float:
        """Float size estimate, used only to pick division pivots."""
        try:
            return abs(complex(x.embed(_pivot_ctx)))
        except (OverflowError, ValueError):
            return math.inf


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

    def from_complex(self, z):
        return self.ctx.mpc(z)

    def root_of_unity(self, q):
        q = Fraction(q)
        return self.ctx.expjpi(2 * self.from_fraction(q))

    def exp_2pii_times(self, c):
        """e^{2 pi i c} for an arbitrary complex constant c."""
        return self.ctx.exp(2j * self.ctx.pi * self.ctx.mpc(c))

    def two_pi_i(self):
        return self.ctx.mpc(0, 2) * self.ctx.pi

    def is_zero(self, x, scale=None) -> bool:
        s = 1.0 if scale is None else max(1.0, float(abs(scale)))
        return abs(x) <= self.zero_tol * s

    def inv(self, x):
        return 1 / x

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


def _format_pi_poly(poly: Dict[int, CycElt]) -> str:
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


def format_scalar(x: ExactScalar) -> str:
    """Canonical string, descending pi powers, rationals in lowest terms."""
    if x.is_trivial_den():
        return _format_pi_poly(x.num)
    return f"({_format_pi_poly(x.num)}) / ({_format_pi_poly(x.den)})"


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
    if text.startswith("("):
        split = _find_top_level(text[1:], ") / (")
        if split is not None and text.endswith(")"):
            num_s = text[1:split + 1]
            den_s = text[split + 6:-1]
            return parse_scalar(ring, num_s) / parse_scalar(ring, den_s)
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
    return ExactScalar(ring.field, poly)
