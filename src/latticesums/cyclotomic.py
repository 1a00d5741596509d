"""Exact scalars: Laurent polynomials in pi over the cyclotomic field Q(zeta_N).

Q(zeta_N) is kept on a tensor basis indexed by the prime-power factors of
N: an exponent tuple (e_1, ..., e_m) with 0 <= e_i < phi(p_i^{a_i}) stands
for the product of zeta_{p_i^{a_i}}^{e_i}.  An ``ExactScalar`` is one flat
map ``{(pi power, basis exponents): int}`` of numerators over one shared
positive denominator, kept in lowest terms, so zero tests and equality are
plain comparisons, and the values that dominate this package (roots of
unity and short combinations of them) stay sparse no matter how large N
gets.  ``CycElt`` is the name of the pi-free scalars that the field's
constructors return; it has no representation or arithmetic of its own.

Phi_{p^a}(zeta) = 0 is applied in one place, ``_row``; ``_reduce`` rewrites
exponents through those rows, and a product of two many-term scalars reads
the products of basis monomials from one table, ``basis_product``, built
from them.  A product by a unit monomial, a root of unity (``moved``) or a
one-term scalar, reads no table: each exponent of the other operand moves
through its factor's row, in one pass per factor.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, mul
from typing import Dict, Tuple

from .errors import NotInvertible

Exps = Tuple[int, ...]


def _factorize(n: int):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            a = 0
            while n % d == 0:
                n //= d
                a += 1
            out.append((d, a))
        else:
            d += 1
    if n > 1:
        out.append((n, 1))
    return out


class CyclotomicField:
    """Q(zeta_N): its reduction rows and the basis product table; the
    numeric images of the generators are computed where an element is
    embedded (``_roots``)."""

    def __init__(self, N: int):
        if N < 1:
            raise ValueError("N must be positive")
        self.N = N
        self.factors = []  # (p, q = p**a, phi(q), p**(a-1))
        for p, a in _factorize(N):
            q = p**a
            self.factors.append((p, q, (p - 1) * p ** (a - 1), p ** (a - 1)))
        self.nfactors = len(self.factors)
        self.zero_exps: Exps = (0,) * self.nfactors
        # zeta_{q_i} = zeta_N^{N/q_i}; conversely zeta_N = prod zeta_{q_i}^{u_i}
        # with u_i = (N/q_i)^{-1} mod q_i (CRT partition of 1/N mod 1)
        self._crt_weights = [N // q for (_, q, _, _) in self.factors]
        self._crt_inverses = [pow(N // q, -1, q) if q > 1 else 0
                              for (_, q, _, _) in self.factors]
        # (exps_a, exps_b) -> ((exps, integer coefficient), ...)
        self.basis_products: Dict[Tuple[Exps, Exps], tuple] = {}
        # per factor: s -> zeta_q^s on the basis, filled as products need it
        self._rows = [{} for _ in self.factors]

    def __repr__(self):
        return f"CyclotomicField({self.N})"

    def __eq__(self, other):
        return isinstance(other, CyclotomicField) and other.N == self.N

    def __hash__(self):
        return hash(("CyclotomicField", self.N))

    # -- constructors -------------------------------------------------

    def zero(self) -> "CycElt":
        return CycElt(self, {})

    def one(self) -> "CycElt":
        return self.from_fraction(Fraction(1))

    def from_fraction(self, q) -> "CycElt":
        q = Fraction(q)
        if q == 0:
            return self.zero()
        return CycElt(self, {(0, self.zero_exps): q.numerator}, q.denominator)

    def zeta_pow(self, j: int) -> "CycElt":
        """zeta_N^j as a canonical element."""
        return CycElt(self, self._reduce({(0, self._unreduced(j)): 1}))

    def root_of_unity(self, q) -> "CycElt":
        """e^{2 pi i q} for rational q with q*N integral."""
        return self.zeta_pow(self._exponent(q))

    def root_minus_one_inverse(self, q) -> "ExactScalar":
        """1/(e^{2 pi i q} - 1) for non-integral rational q with q*N
        integral: with w = e^{2 pi i q} of order M, the denominator of q,
        1/(w - 1) = (1/M) sum_{m=1}^{M-1} m w^m.  The powers w^m are
        distinct, so one reduction merges them all."""
        j, M = self._exponent(q), Fraction(q).denominator
        if M == 1:
            raise ValueError(f"e^(2 pi i {q}) - 1 is zero")
        raw = {(0, self._unreduced(j * m)): m for m in range(1, M)}
        return ExactScalar(self, {})._cancel(self._reduce(raw), M)

    def _exponent(self, q) -> int:
        """The j with e^{2 pi i q} = zeta_N^j, for an int or Fraction q."""
        j, rest = divmod(q.numerator * self.N, q.denominator)
        if rest:
            raise ValueError(f"e^(2 pi i {q}) does not lie in Q(zeta_{self.N})")
        return j

    # -- exponents ------------------------------------------------------

    def zeta_exponent(self, exps: Exps) -> int:
        """The j in [0, N) with zeta_N^j equal to the basis monomial exps."""
        return sum(map(mul, exps, self._crt_weights)) % self.N

    def _unreduced(self, j: int) -> Exps:
        """Exponents (j*u_i mod q_i) of zeta_N^j, before reduction."""
        return tuple((j * u) % q for (_, q, _, _), u
                     in zip(self.factors, self._crt_inverses))

    def moved(self, terms: Dict[tuple, int], exps: Exps
              ) -> Dict[tuple, int]:
        """``{(k, basis exps): int}`` times the monomial of `exps`, whose
        entries lie in [0, q_i): a basis monomial, or zeta_N^j as
        ``_unreduced(j)`` exponents.  Factor by factor, each exponent e_i
        is replaced by the row of e_i + exps_i (``_row``) and equal terms
        merge; a factor with exps_i = 0 is skipped.  No term pair is
        formed and no product table is read.  The tensor basis spans the
        ring of integers and a root of unity is a unit of it, so moving a
        scalar's terms by a root leaves the gcd of its numerators, and so
        its lowest terms, as they were."""
        for i, u in enumerate(exps):
            if not u:
                continue
            rows = self._rows[i]
            pending, terms = terms, {}
            for (k, e), v in pending.items():
                s = e[i] + u
                for f, d in rows.get(s) or self._row(i, s):
                    _acc(terms, (k, e[:i] + (f,) + e[i + 1:]),
                         v if d > 0 else -v)
        return terms

    # -- canonical reduction -------------------------------------------

    def _reduce(self, raw: Dict[tuple, int]) -> Dict[tuple, int]:
        """Rewrite the exponents of ``{(k, exps): int}`` into the basis
        ranges, merging coefficients.

        Incoming exponents must already satisfy 0 <= e_i < q_i, and
        coefficients must be nonzero.  Factor by factor, each exponent is
        replaced by its row (``_row``), and equal terms merge before the
        next factor.
        """
        for i, rows in enumerate(self._rows):
            pending, raw = raw, {}
            for (k, exps), coeff in pending.items():
                e = exps[i]
                for f, d in rows.get(e) or self._row(i, e):
                    _acc(raw, (k, exps[:i] + (f,) + exps[i + 1:]),
                         coeff if d > 0 else -coeff)
        return raw

    def basis_product(self, ea: Exps, eb: Exps) -> tuple:
        """The product of two basis monomials as ((exps, +-1), ...),
        computed once and kept in ``basis_products``: the tensor product
        over the prime-power factors of their rows at ea_i + eb_i, with
        no reduction to run."""
        key = (ea, eb)
        got = self.basis_products.get(key)
        if got is None:
            got = ((), 1),
            for i, s in enumerate(map(add, ea, eb)):
                row = self._rows[i].get(s) or self._row(i, s)
                got = tuple((e + (f,), c * d) for e, c in got
                            for f, d in row)
            self.basis_products[key] = got
        return got

    def _row(self, i: int, s: int) -> tuple:
        """zeta_q^s for 0 <= s < 2q - 1 on the basis of factor i, as
        ((exponent, +-1), ...), kept in ``_rows[i]``: one exponent when
        s mod q < phi, else zeta^(phi + r) = -sum_{m=0}^{p-2}
        zeta^(r + m*p^(a-1))."""
        p, q, phi, pk = self.factors[i]
        r = s % q
        row = ((r, 1),) if r < phi else \
            tuple((r - phi + m * pk, -1) for m in range(p - 1))
        self._rows[i][s] = row
        return row

    # -- numerics -------------------------------------------------------

    def _roots(self, ctx):
        """Per factor q, the zeta_q^e for e < phi(q), in mpmath's ctx."""
        roots = []
        for (_, q, phi, _) in self.factors:
            w = ctx.expjpi(ctx.mpf(2) / q)
            roots.append([w**e for e in range(phi)])
        return roots


def _acc(d, key, val):
    cur = d.get(key)
    if cur is None:
        d[key] = val
    else:
        cur += val
        if cur == 0:
            del d[key]
        else:
            d[key] = cur


class ExactScalar:
    """Element of Q(zeta_N)[pi, 1/pi] as ``{(k, exps): int}`` over ``den``.

    The key ``(k, exps)`` stands for pi^k times the basis monomial ``exps``
    of the field, and its value is the integer numerator of that
    coefficient; every coefficient shares the one positive denominator
    ``den``.  The form is canonical: no numerator is zero and
    ``gcd(den, *numerators) == 1`` (zero is ``{}`` over 1), so equality
    and hashing compare the dict and ``den`` directly.  Immutable by
    convention.
    """

    __slots__ = ("field", "terms", "den")

    def __init__(self, field: CyclotomicField, terms: Dict[tuple, int],
                 den: int = 1):
        self.field = field
        self.terms = terms
        self.den = den

    def is_zero(self) -> bool:
        return not self.terms

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, ExactScalar):
            if other.field.N != self.field.N:
                raise ValueError("mixed cyclotomic orders")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_fraction(other)
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
        if len(self.terms) == 1 or len(other.terms) == 1:
            # a unit monomial c pi^k zeta^e: the pi powers shift, the
            # numerators scale by c and, unless e = 0, the exponents move
            # through the rows (``moved``); one cancel
            x, mono = (other, self) if len(self.terms) == 1 else \
                (self, other)
            ((kb, eb), vb), = mono.terms.items()
            out = {(k + kb, e): v * vb for (k, e), v in x.terms.items()}
            if eb != field.zero_exps:
                out = field.moved(out, eb)
            return self._cancel(out, self.den * other.den)
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

    def inv(self) -> "ExactScalar":
        """Inverse of c * pi^k for nonzero c in Q(zeta_N)."""
        if not self.terms:
            raise ZeroDivisionError("inverting zero scalar")
        ks = {k for k, _ in self.terms}
        if len(ks) != 1:
            raise NotInvertible(f"not a pi-monomial: {self}")
        k, = ks
        field = self.field
        unit = ExactScalar(field, {(0, e): v for (_, e), v
                                   in self.terms.items()}, self.den)
        got = unit._unit_inverse()
        return ExactScalar(field, {(-k, e): v for (_, e), v
                                   in got.terms.items()}, got.den)

    def _unit_inverse(self) -> "ExactScalar":
        """Inverse of a nonzero pi-free scalar c: a zeta-monomial in
        closed form, any other c through its norm."""
        field = self.field
        if len(self.terms) == 1:
            ((_, e), v), = self.terms.items()
            return field.zeta_pow(-field.zeta_exponent(e)) \
                * Fraction(self.den, v)
        # generic: product of the nontrivial Galois conjugates over the norm
        prod = field.one()
        for j in range(2, field.N + 1):
            if math.gcd(j, field.N) == 1:
                prod = prod * self.galois(j)
        norm = self * prod
        if norm.terms.keys() != {(0, field.zero_exps)}:
            raise ArithmeticError("norm computation failed to land in Q")
        return prod * Fraction(norm.den, norm.terms[0, field.zero_exps])

    def galois(self, j: int) -> "ExactScalar":
        """Apply zeta -> zeta^j; requires gcd(j, N) = 1."""
        field = self.field
        if math.gcd(j, field.N) != 1:
            raise ValueError("galois exponent must be a unit mod N")
        qs = [f[1] for f in field.factors]
        raw: Dict[tuple, int] = {}
        for (k, exps), v in self.terms.items():
            _acc(raw, (k, tuple((e * j) % q for e, q in zip(exps, qs))), v)
        return self._cancel(field._reduce(raw), self.den)

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
        """Numeric value under zeta_q -> e^{2 pi i/q} and pi -> ctx.pi in
        the mpmath context ctx, summed per power of pi, by ascending power,
        each coefficient in lowest terms and each power's terms by
        ascending basis exponents, so that equal scalars embed to equal
        values whatever the order of their terms."""
        roots = self.field._roots(ctx)
        grouped: Dict[int, list] = {}
        for (k, exps), v in self.terms.items():
            grouped.setdefault(k, []).append((exps, v))
        pi, den = ctx.pi, self.den
        out = ctx.mpc(0)
        for k in sorted(grouped):
            total = ctx.mpc(0)
            for exps, v in sorted(grouped[k]):
                g = math.gcd(v, den)
                term = ctx.mpc(ctx.mpf(v // g) / ctx.mpf(den // g))
                for i, e in enumerate(exps):
                    if e:
                        term *= roots[i][e]
                total += term
            out += total * pi**k
        return out

    def __repr__(self):
        from .scalar import format_scalar  # serialization lives there
        return format_scalar(self)


class CycElt(ExactScalar):
    """A pi-free ``ExactScalar``, as the field's constructors return it."""

    __slots__ = ()

    # Bound here, not inherited: the benchmark tracer wraps these five names
    # on this class and on ExactScalar, and restores each by assignment.  An
    # inherited name would be wrapped around ExactScalar's wrapper, and
    # restoring it would leave that wrapper bound on this class.
    __add__ = __radd__ = ExactScalar.__add__
    __mul__ = __rmul__ = ExactScalar.__mul__
    inv = ExactScalar.inv
