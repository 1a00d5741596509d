"""Sparse exact arithmetic in the cyclotomic field Q(zeta_N).

Elements are kept on a tensor basis indexed by the prime-power factors of N:
an exponent tuple (e_1, ..., e_m) with 0 <= e_i < phi(p_i^{a_i}) stands for
the product of zeta_{p_i^{a_i}}^{e_i}.  The representation is canonical, so
zero tests and equality are plain dictionary comparisons, and the values that
dominate this package (roots of unity and short combinations of them) stay
sparse no matter how large N gets.

Phi_{p^a}(zeta) = 0 is applied in one place, ``_row``; ``_reduce`` rewrites
exponents through those rows, and every product (of ``CycElt`` and of the
exact scalars in ``scalar``) reads the products of basis monomials from one
table, ``basis_product``, built from them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add
from typing import Dict, Tuple

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
    """Q(zeta_N) with canonical sparse elements.

    The field caches inverses (they are the one genuinely expensive
    operation) and the per-precision numeric images of the generators.
    """

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
        self._inv_cache: Dict[tuple, "CycElt"] = {}
        # (exps_a, exps_b) -> ((exps, integer coefficient), ...)
        self.basis_products: Dict[Tuple[Exps, Exps], tuple] = {}
        # per factor: s -> zeta_q^s on the basis, filled as products need it
        self._rows = [{} for _ in self.factors]
        self._root_cache: Dict[int, list] = {}

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
        return CycElt(self, {(0,) * self.nfactors: q})

    def zeta_pow(self, j: int) -> "CycElt":
        """zeta_N^j as a canonical element."""
        return CycElt(self, self._reduce({self._unreduced(j): Fraction(1)}))

    def _unreduced(self, j: int) -> Exps:
        """Exponents (j*u_i mod q_i) of zeta_N^j, before reduction."""
        return tuple((j * u) % q for (_, q, _, _), u
                     in zip(self.factors, self._crt_inverses))

    def _unity_exponent(self, coeffs: Dict[Exps, Fraction]):
        """j if ``coeffs`` is the canonical form of zeta_N^j, else None.

        Factor i of a canonical root of unity is either one basis exponent
        e or, reduced, the p-1 exponents e - phi + m*p^(a-1); the smallest
        exponent met in position i gives e back.  For p = 2 both forms are
        one exponent, so j is fixed only up to zeta_N^(N/2) = -1, and both
        candidates are checked.
        """
        if not coeffs:
            return None
        j = 0
        for i, ((_, _, phi, _), w) in enumerate(zip(self.factors,
                                                    self._crt_weights)):
            seen = {e[i] for e in coeffs}
            j += (min(seen) + (phi if len(seen) > 1 else 0)) * w
        for cand in (j, j + self.N // 2):
            if self.zeta_pow(cand).coeffs == coeffs:
                return cand % self.N
        return None

    def root_of_unity(self, q) -> "CycElt":
        """e^{2 pi i q} for rational q with q*N integral."""
        q = Fraction(q)
        jN = q * self.N
        if jN.denominator != 1:
            raise ValueError(f"e^(2 pi i {q}) does not lie in Q(zeta_{self.N})")
        return self.zeta_pow(int(jN))

    # -- canonical reduction -------------------------------------------

    def _reduce(self, raw: Dict[Exps, Fraction]) -> Dict[Exps, Fraction]:
        """Rewrite exponents into the basis ranges, merging coefficients.

        Incoming exponents must already satisfy 0 <= e_i < q_i, and
        coefficients must be nonzero.  Factor by factor, each exponent is
        replaced by its row (``_row``), and equal terms merge before the
        next factor.
        """
        for i, rows in enumerate(self._rows):
            pending, raw = raw, {}
            for exps, coeff in pending.items():
                e = exps[i]
                for f, d in rows.get(e) or self._row(i, e):
                    _acc(raw, exps[:i] + (f,) + exps[i + 1:],
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
        key = ctx.prec
        roots = self._root_cache.get(key)
        if roots is None:
            roots = []
            for (_, q, phi, _) in self.factors:
                w = ctx.expjpi(ctx.mpf(2) / q)
                roots.append([w**e for e in range(phi)])
            self._root_cache[key] = roots
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


class CycElt:
    """Canonical element of a CyclotomicField.  Immutable by convention."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: CyclotomicField, coeffs: Dict[Exps, Fraction]):
        self.field = field
        self.coeffs = coeffs

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_rational(self) -> bool:
        if not self.coeffs:
            return True
        z = (0,) * self.field.nfactors
        return len(self.coeffs) == 1 and z in self.coeffs

    def rational_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_rational():
            raise ValueError(f"not a rational element: {self}")
        return next(iter(self.coeffs.values()))

    def key(self):
        return tuple(sorted(self.coeffs.items()))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            _acc(out, e, c)
        return CycElt(self.field, out)

    __radd__ = __add__

    def __neg__(self):
        return CycElt(self.field, {e: -c for e, c in self.coeffs.items()})

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
        fld = self.field
        table = fld.basis_products
        out: Dict[Exps, Fraction] = {}
        for ea, ca in self.coeffs.items():
            for eb, cb in other.coeffs.items():
                c = ca * cb
                for e, m in table.get((ea, eb)) or fld.basis_product(ea, eb):
                    _acc(out, e, c if m > 0 else -c)
        return CycElt(fld, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field.N, self.key()))

    def _coerce(self, other):
        if isinstance(other, CycElt):
            if other.field.N != self.field.N:
                raise ValueError("mixed cyclotomic fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_fraction(other)
        return NotImplemented

    # -- Galois action and inversion ----------------------------------------

    def galois(self, j: int) -> "CycElt":
        """Apply zeta -> zeta^j; requires gcd(j, N) = 1."""
        fld = self.field
        if math.gcd(j, fld.N) != 1:
            raise ValueError("galois exponent must be a unit mod N")
        qs = [f[1] for f in fld.factors]
        raw: Dict[Exps, Fraction] = {}
        for exps, coeff in self.coeffs.items():
            ne = tuple((e * j) % q for e, q in zip(exps, qs))
            _acc(raw, ne, coeff)
        return CycElt(fld, fld._reduce(raw))

    def _as_zeta_monomial(self):
        """Return (coeff, j) if self = coeff * zeta_N^j, else None."""
        if len(self.coeffs) != 1:
            return None
        exps, coeff = next(iter(self.coeffs.items()))
        j = 0
        for e, w in zip(exps, self.field._crt_weights):
            j += e * w
        return coeff, j % self.field.N

    def inv(self) -> "CycElt":
        if self.is_zero():
            raise ZeroDivisionError("cyclotomic division by zero")
        fld = self.field
        cached = fld._inv_cache.get(self.key())
        if cached is not None:
            return cached
        out = self._inv_uncached()
        fld._inv_cache[self.key()] = out
        return out

    def _inv_uncached(self):
        fld = self.field
        mono = self._as_zeta_monomial()
        if mono is not None:
            coeff, j = mono
            return fld.zeta_pow(-j) * (1 / coeff)
        two = self._as_unity_minus_one()
        if two is not None:
            coeff, j = two  # self = coeff * (zeta_N^j - 1)
            order = fld.N // math.gcd(fld.N, j)
            # 1/(w - 1) = (1/M) * sum_{m=1}^{M-1} m w^m for w of order M;
            # the powers w^m are distinct, so one reduction merges them all
            raw = {fld._unreduced(j * m): m for m in range(1, order)}
            scale = 1 / (coeff * order)
            return CycElt(fld, {e: v * scale
                                for e, v in fld._reduce(raw).items()})
        # generic: product of the nontrivial Galois conjugates over the norm
        prod = fld.one()
        for j in range(2, fld.N + 1):
            if math.gcd(j, fld.N) == 1:
                prod = prod * self.galois(j)
        norm = self * prod
        if not norm.is_rational():
            raise ArithmeticError("norm computation failed to land in Q")
        return prod * (1 / norm.rational_value())

    def _as_unity_minus_one(self):
        """Return (c, j) if self = c*(zeta_N^j - 1), else None.

        Every coefficient of a canonical root of unity is +-1, so any
        coefficient of self off the constant monomial is +-c; for each sign
        self/c + 1 is tested as a root of unity, whatever its basis form.
        """
        z = self.field.zero_exps
        a = next((v for e, v in self.coeffs.items() if e != z), None)
        if a is None:
            return None
        for c in (a, -a):
            w = {e: v / c for e, v in self.coeffs.items()}
            _acc(w, z, 1)
            j = self.field._unity_exponent(w)
            if j is not None:
                return c, j
        return None

    # -- conversion -----------------------------------------------------------

    def embed(self, ctx):
        """Numeric value under zeta_{q} -> e^{2 pi i/q} in the mpmath context ctx."""
        roots = self.field._roots(ctx)
        total = ctx.mpc(0)
        for exps, coeff in self.coeffs.items():
            term = ctx.mpc(_to_mpq(ctx, coeff))
            for i, e in enumerate(exps):
                if e:
                    term *= roots[i][e]
            total += term
        return total

    def as_zeta_poly(self) -> Dict[int, Fraction]:
        """Rewrite as a dict {j: c} meaning sum c * zeta_N^j (0 <= j < N)."""
        out: Dict[int, Fraction] = {}
        for exps, coeff in self.coeffs.items():
            j = 0
            for e, w in zip(exps, self.field._crt_weights):
                j += e * w
            _acc(out, j % self.field.N, coeff)
        return out

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for j, c in sorted(self.as_zeta_poly().items()):
            if j == 0:
                parts.append(str(c))
            elif j == 1:
                parts.append(f"{c}*z")
            else:
                parts.append(f"{c}*z^{j}")
        return " + ".join(parts)


def _to_mpq(ctx, frac: Fraction):
    return ctx.mpf(frac.numerator) / ctx.mpf(frac.denominator)
