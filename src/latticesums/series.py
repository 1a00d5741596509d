"""Truncated multivariate power series over either coefficient ring.

A series is a sparse map from exponent tuples to scalars, truncated by
total degree and, with a box, by one cap per variable (``Truncation``).
The product of two series is a term convolution that the coefficient
ring performs (``mul_terms``), each ring on its own representation; the
truncation rule of a convolution of values, numeric scalars or the ints
of the unit products, is written once (``convolve``).  On top of the
plain ring operations this module provides the operations that make the
closed-form evaluators work:

* ``LinearForm`` -- sum_v q_v t_v - 2 pi i c with exact rational q_v and
  an exact constant c, the one type of every denominator and exponent.
  It is plain exact data and holds no ring: its singularity (c == 0) and
  its merge key (the normalised q_v) are read from that data in both
  rings, and a reader that needs c as a scalar asks its ring
  (``from_fraction``, ``root_of_unity``).  One multinomial enumerator
  (``monomials``) expands every function of it that the evaluators need,
  coefficient by coefficient with no series product: in
  ``genfun.unit_parts`` every unit inverse (c != 0) and the vertex
  exponential, one exact product over Q of all the inverses of a summand
  or of the whole numerator of a polytope vertex, each coefficient built
  once from its int numerators (``ring.unit_lift``, once for all the
  summands of a full series with no singular factor, or all the vertices
  with no singular edge);
* ``divide_exact`` -- division by a singular linear form, valid exactly
  because the assembled sums are holomorphic even though the individual
  summands are not.  Polynomial division in the variable of the largest
  |q_v| yields the quotient with rational scalings only, and a remainder
  free of that variable, zero exactly when the form divides.  Only the
  two check routes divide, ``polytope.genfun_via_polytopes`` and
  ``hierarchy.check_hierarchy``; the evaluator (``genfun``) reads its
  summands in a field of iterated Laurent series;
* ``sum_rational_forms`` -- combination of summands carrying such singular
  denominators over a common product of one representative per merge key:
  each numerator times one multiplier, a polynomial over Q that scales it
  to those representatives and multiplies it by the ones it lacks, all
  summed in one series product call (``mul_terms``), followed by the exact
  divisions, ``division_count`` of them, each losing one degree.

``TruncatedSeries.invert_unit`` remains as the generic inverse of any unit
series; the tests use it as an independent reference for the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, le
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import NonDivisible

Exps = Tuple[int, ...]


@dataclass(frozen=True)
class Truncation:
    """Total-degree cutoff, and with `box` one cutoff per variable too."""

    total: int
    box: Optional[Exps] = None

    def keeps(self, exps: Exps) -> bool:
        return sum(exps) <= self.total and (
            self.box is None or all(map(le, exps, self.box)))


def convolve(terms: Dict[Exps, object], fac, trunc: Truncation
             ) -> Dict[Exps, object]:
    """The product of the series `terms` and `fac`, the latter given as
    (e, value, |e|) triples, truncated at `trunc`, with no zero value: the
    one convolution of values, ints or Gaussian ints, each term of `terms`
    outer."""
    total, box = trunc.total, trunc.box
    out: Dict[Exps, object] = {}
    get = out.get
    for ea, va in terms.items():
        na = sum(ea)
        for eb, vb, nb in fac:
            if na + nb > total:
                continue
            e = tuple(map(add, ea, eb))
            if box is not None and not all(map(le, e, box)):
                continue
            cur = get(e)
            out[e] = va * vb if cur is None else cur + va * vb
    return {e: v for e, v in out.items() if v}


class TruncatedSeries:
    __slots__ = ("ring", "vars", "trunc", "terms")

    def __init__(self, ring, vars: Sequence[str], trunc: Truncation,
                 terms: Optional[Dict[Exps, object]] = None):
        self.ring = ring
        self.vars = tuple(vars)
        self.trunc = trunc
        self.terms = {} if terms is None else terms

    # -- constructors ---------------------------------------------------

    @classmethod
    def one(cls, ring, vars, trunc):
        s = cls(ring, vars, trunc)
        s.terms[(0,) * len(s.vars)] = ring.one()
        return s

    def clone_empty(self) -> "TruncatedSeries":
        return TruncatedSeries(self.ring, self.vars, self.trunc)

    # -- bookkeeping -------------------------------------------------------

    def _zero_exps(self) -> Exps:
        return (0,) * len(self.vars)

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exps: Exps):
        return self.terms.get(tuple(exps), self.ring.zero())

    def max_magnitude(self) -> float:
        if not self.terms:
            return 0.0
        return max(self.ring.magnitude(c) for c in self.terms.values())

    def extend(self, vars: Sequence[str], trunc: Optional[Truncation] = None
               ) -> "TruncatedSeries":
        """Re-embed into a superset variable tuple."""
        vars = tuple(vars)
        idx = [vars.index(v) for v in self.vars]
        out = TruncatedSeries(self.ring, vars, trunc or self.trunc)
        n = len(vars)
        for e, c in self.terms.items():
            ne = [0] * n
            for pos, val in zip(idx, e):
                ne[pos] = val
            ne = tuple(ne)
            if out.trunc.keeps(ne):
                out.terms[ne] = c
        return out

    def shifted(self, names: Sequence[str], trunc: Truncation
                ) -> "TruncatedSeries":
        """The series times the monomial prod_{v in names} t_v, truncated
        at `trunc`: one exponent shift, no series product."""
        step = [0] * len(self.vars)
        for v in names:
            step[self.vars.index(v)] += 1
        terms = {}
        for e, c in self.terms.items():
            e = tuple(map(add, e, step))
            if trunc.keeps(e):
                terms[e] = c
        return TruncatedSeries(self.ring, self.vars, trunc, terms)

    # -- ring operations ---------------------------------------------------

    def _check_compat(self, other: "TruncatedSeries"):
        if self.vars != other.vars:
            raise ValueError(f"variable sets differ: {self.vars} vs {other.vars}")
        if self.trunc != other.trunc:
            raise ValueError("truncation orders differ")

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_compat(other)
        out = dict(self.terms)
        ring = self.ring
        for e, c in other.terms.items():
            cur = out.get(e)
            s = c if cur is None else cur + c
            if ring.is_zero(s):
                out.pop(e, None)
            else:
                out[e] = s
        return TruncatedSeries(ring, self.vars, self.trunc, out)

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(self.ring, self.vars, self.trunc,
                               {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + (-other)

    def scalar_mul(self, value) -> "TruncatedSeries":
        if self.ring.is_zero(value):
            return self.clone_empty()
        return TruncatedSeries(self.ring, self.vars, self.trunc,
                               {e: c * value for e, c in self.terms.items()})

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_compat(other)
        small, big = (self.terms, other.terms) \
            if len(self.terms) <= len(other.terms) else (other.terms, self.terms)
        return TruncatedSeries(self.ring, self.vars, self.trunc,
                               self.ring.mul_terms([(small, big)], self.trunc))

    # -- analytic helpers ----------------------------------------------------

    def invert_unit(self) -> "TruncatedSeries":
        """Inverse of a series with invertible constant term."""
        ring = self.ring
        c0 = self.terms.get(self._zero_exps())
        if c0 is None:
            raise NonDivisible("cannot invert a series with zero constant term")
        c0_inv = ring.inv(c0)
        u = self.scalar_mul(c0_inv)
        del u.terms[u._zero_exps()]  # u = s/c0 - 1, no constant term
        acc = TruncatedSeries.one(ring, self.vars, self.trunc)
        pw = acc
        for _ in range(self.trunc.total):
            pw = pw * (-u)
            if pw.is_zero():
                break
            acc = acc + pw
        return acc.scalar_mul(c0_inv)

    def dump(self) -> str:
        """Golden-file format: one 'exponents : scalar' line, sorted."""
        lines = []
        for e in sorted(self.terms):
            lines.append(f"{e} : {self.terms[e]}")
        return "\n".join(lines)

    def __repr__(self):
        return (f"TruncatedSeries(vars={self.vars}, total={self.trunc.total}, "
                f"terms={len(self.terms)})")


def coefficient_discrepancy(ring, pairs: Iterable[tuple]):
    """How far the coefficient pairs (a, b) are apart: in an exact ring the
    number of unequal pairs, in a numeric one the largest |a - b|, the
    difference taken in the ring so that it shows below double precision
    (0.0 for no pairs)."""
    if ring.exact:
        return sum(1 for a, b in pairs if not a == b)
    return max((ring.magnitude(a - b) for a, b in pairs), default=0.0)


# ---------------------------------------------------------------------------
# linear forms
# ---------------------------------------------------------------------------


class LinearForm:
    """sum_v q_v t_v - 2 pi i c with rational q_v, the one form type.

    Plain exact data, in no ring: `coeffs` holds the nonzero q_v as
    Fractions, `den` their common denominator, and `c` the exact
    constant, a Fraction (an int is made one) or a Gaussian rational;
    `c == 0` marks a singular form.  A reader that needs -2 pi i c as a
    scalar builds it from `c` in its ring.  `key`, the coefficients scaled
    so that the first (by variable order) is 1, is equal for forms that
    agree up to a rational scale; it is built on first use, as a unit
    inverse or an exponential (``genfun.unit_parts``) does not read it.
    """

    __slots__ = ("coeffs", "den", "c", "_key")

    def __init__(self, coeffs: Dict[str, Fraction], c=Fraction(0)):
        self.coeffs = {v: Fraction(q) for v, q in coeffs.items() if q}
        self.den = math.lcm(*(q.denominator for q in self.coeffs.values()))
        if isinstance(c, int):
            c = Fraction(c)
        self.c = c
        self._key = None

    @classmethod
    def normalised(cls, coeffs: Dict[str, Fraction], den: int, c
                   ) -> "LinearForm":
        """The form of already normalised data, taken as it is: `coeffs`
        the nonzero q_v as Fractions, `den` their least common denominator
        and `c` a Fraction or a Gaussian rational."""
        form = cls.__new__(cls)
        form.coeffs, form.den, form.c, form._key = coeffs, den, c, None
        return form

    @property
    def key(self) -> tuple:
        if self._key is None:
            lead = self.coeffs[min(self.coeffs)] if self.coeffs else 1
            self._key = tuple(sorted((v, q / lead)
                                     for v, q in self.coeffs.items()))
        return self._key

    @property
    def singular(self) -> bool:
        return self.c == 0

    @property
    def pivot(self) -> str:
        """The variable ``divide_exact`` divides in: the one of largest
        |q_v|, ties broken by name.  A rational scale keeps it, so the
        forms of one ``key`` share it."""
        return min((-abs(q), v) for v, q in self.coeffs.items())[1]

    def monomials(self, vars, trunc: Truncation, top: int
                  ) -> List[Tuple[Exps, int, int]]:
        """``(e, m, |e|)`` for every t^e with |e| <= `top` in `trunc`'s box,
        m its integer coefficient in (D L)^|e|, D = `den`: with
        q_v = p_v / D,

            m = |e|!/prod_v e_v! * prod_v p_v^(e_v).

        The one multinomial walk behind every expansion of the form."""
        vars = tuple(vars)
        fact = [1]
        for n in range(top):
            fact.append(fact[-1] * (n + 1))
        # (exponents, prod p_v^(e_v), prod e_v!, |e|), one variable at a time
        partial = [((0,) * len(vars), 1, 1, 0)]
        for v, q in self.coeffs.items():
            pos = vars.index(v)
            p = q.numerator * (self.den // q.denominator)
            cap = top if trunc.box is None else trunc.box[pos]
            grown = []
            for e, pe, fe, n in partial:
                head, tail = e[:pos], e[pos + 1:]
                for j in range(min(top - n, cap) + 1):
                    grown.append((head + (j,) + tail, pe, fe, n + j))
                    pe *= p
                    fe *= j + 1
            partial = grown
        return [(e, fact[n] // fe * pe, n) for e, pe, fe, n in partial]


# ---------------------------------------------------------------------------
# exact division by a constant-free linear form
# ---------------------------------------------------------------------------


def _residual_ok(s, residual_terms) -> bool:
    ring = s.ring
    if ring.exact:
        return not residual_terms
    norm = 0.0
    for c in residual_terms.values():
        norm = max(norm, ring.magnitude(c))
    return norm <= 2.0 ** (-ring.precision / 2) * max(1.0, s.max_magnitude())


def divide_exact(s: TruncatedSeries, form: LinearForm) -> TruncatedSeries:
    """Divide s by a linear form with zero constant term.

    Polynomial division in one pivot variable t_p, ``LinearForm.pivot``:
    the one with the largest |q_v|, ties broken by name.  With
    l = q_p t_p + l' and s and the quotient Q split into t_p-slices s_j
    and Q_j, matching coefficients of t_p^j in s = l Q + r gives, from the
    top slice down,

        Q_{j-1} = (s_j - l' Q_j) / q_p,

    and the remainder r = s_0 - l' Q_0, free of t_p.  That remainder is
    unique, and zero exactly when l divides s.  Every step scales a scalar
    by a ratio of the form's rationals (``ring.scale``): 1/q_p for a
    quotient term and -q_v/q_p, of modulus at most 1, for an update of the
    slice below.  l is homogeneous, so the quotient through degree W - 1
    reads s through degree W only, and the remainder test covers every
    degree of s.

    Exact mode demands a literally zero remainder and raises NonDivisible
    (carrying the remainder terms) otherwise.  Numeric mode tolerates
    remainder norms below 2^(-precision/2) times the largest term of s.
    """
    ring = s.ring
    if not form.singular:
        raise ValueError("divide_exact needs a constant-free linear form")
    pivot = form.pivot
    q_p, p = form.coeffs[pivot], s.vars.index(pivot)
    if s.is_zero():
        return s.clone_empty()
    inv, down = 1 / q_p, tuple(-int(v == pivot) for v in s.vars)
    # per t_v: (step, ratio)
    updates = [(tuple(int(w == v) for w in s.vars), -q / q_p)
               for v, q in form.coeffs.items() if v != pivot]
    slices: Dict[int, Dict[Exps, object]] = {}
    for e, c in s.terms.items():
        slices.setdefault(e[p], {})[e] = c
    out = s.clone_empty()
    for j in range(max(slices), 0, -1):
        below = slices.setdefault(j - 1, {})
        for e, c in slices.pop(j, {}).items():
            if ring.is_zero(c):
                continue
            e = tuple(map(add, e, down))
            out.terms[e] = ring.scale(c, inv)
            for step, ratio in updates:
                ne = tuple(map(add, e, step))
                val = ring.scale(c, ratio)
                cur = below.get(ne)
                below[ne] = val if cur is None else cur + val
    remainder = {e: c for e, c in slices.get(0, {}).items()
                 if not ring.is_zero(c)}
    if not _residual_ok(s, remainder):
        raise NonDivisible("series is not divisible by the linear form",
                           residual=remainder)
    return out


# ---------------------------------------------------------------------------
# rational forms
# ---------------------------------------------------------------------------


@dataclass
class RationalForm:
    """numerator / product of singular linear forms."""

    numerator: TruncatedSeries
    denominators: List[LinearForm] = field(default_factory=list)


def _divisors(denominator_lists: Iterable[Sequence[LinearForm]]
              ) -> Dict[tuple, Tuple[LinearForm, int]]:
    """Per distinct ``LinearForm.key``: its first form and its largest
    multiplicity in any one list, the powers of the common denominator."""
    out: Dict[tuple, Tuple[LinearForm, int]] = {}
    for denoms in denominator_lists:
        keys = [d.key for d in denoms]
        for d, k in zip(denoms, keys):
            m = keys.count(k)
            got = out.get(k)
            if got is None or got[1] < m:
                out[k] = (d if got is None else got[0], m)
    return out


def division_count(denominator_lists: Iterable[Sequence[LinearForm]]
                   ) -> int:
    """The number of ``divide_exact`` calls that ``sum_rational_forms``
    makes for forms with these denominator lists.  Each division loses one
    degree, so numerators truncated at order + this count give the sum
    exactly through `order`."""
    return sum(m for _, m in _divisors(denominator_lists).values())


def sum_rational_forms(forms: Sequence[RationalForm]) -> TruncatedSeries:
    """Combine summands over the product of their distinct denominators and
    perform the exact divisions; the result is the holomorphic total.

    Forms equal up to a rational scale share one ``LinearForm.key``, and
    ``_divisors`` picks one representative r of each.  A denominator d of
    that key is lead(d)/lead(r) times r (lead: the first coefficient by
    variable order), so each numerator is multiplied by one multiplier:
    the product of lead(r)/lead(d) over its own denominators times the
    powers of the representatives it lacks, an exact polynomial over Q of
    degree at most ``division_count``, each coefficient made a scalar once
    (``ring.from_fraction``).  The numerators times their multipliers are
    summed in one ``ring.mul_terms``, and the sum is divided by the
    representatives.

    Each division loses one degree: for numerators truncated at W, the
    sum is exact through W - ``division_count`` of the denominators, so
    the working order of a sum through `order` is order + divisions.  The
    remainder test of each division covers every degree up to W, so it
    sees every term that feeds a returned coefficient."""
    if not forms:
        raise ValueError("no forms to sum")
    ring = forms[0].numerator.ring
    vars = forms[0].numerator.vars
    trunc = forms[0].numerator.trunc
    for f in forms[1:]:
        if f.numerator.vars != vars or f.numerator.trunc != trunc:
            raise ValueError("forms must share variables and truncation")

    universe = _divisors(f.denominators for f in forms)
    # each representative as one-variable terms (e, q_v, 1)
    linear = {k: [(tuple(int(w == v) for w in vars), q, 1)
                  for v, q in d.coeffs.items()]
              for k, (d, _) in universe.items()}
    pairs = []
    for f in forms:
        keys = [d.key for d in f.denominators]
        scale = Fraction(1)
        for d, k in zip(f.denominators, keys):
            if not d.singular or not d.coeffs:
                raise ValueError("a denominator must be a singular form "
                                 "with a linear part")
            lead = min(d.coeffs)
            scale *= universe[k][0].coeffs[lead] / d.coeffs[lead]
        multiplier = {(0,) * len(vars): scale}
        for k, (_, mult) in universe.items():
            for _ in range(mult - keys.count(k)):
                multiplier = convolve(multiplier, linear[k], trunc)
        pairs.append(({e: ring.from_fraction(q)
                       for e, q in multiplier.items()}, f.numerator.terms))
    total = TruncatedSeries(ring, vars, trunc, ring.mul_terms(pairs, trunc))

    for d, mult in universe.values():
        for _ in range(mult):
            total = divide_exact(total, d)
    return total
