"""Truncated multivariate power series over either coefficient ring.

A series is a sparse map from exponent tuples to scalars, truncated by
total degree.  The product of two series is a term convolution that the
coefficient ring performs (``mul_terms``), each ring on its own
representation.  On top of the plain ring operations this module provides
the operations that make the closed-form evaluators work:

* ``LinearForm.inverse_power`` -- a negative power of a linear form with
  nonzero constant, coefficient by coefficient from its multinomial closed
  form (no series product);
* ``divide_exact`` -- division by a linear form with zero constant term,
  valid exactly because the assembled sums are holomorphic even though the
  individual summands are not.  A slice recurrence solves for the quotient
  with scalar operations only;
* ``sum_rational_forms`` -- combination of summands carrying such singular
  denominators over a common product, followed by the exact divisions.

``TruncatedSeries.invert_unit`` remains as the generic inverse of any unit
series; the tests use it as an independent reference for the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import NonDivisible

Exps = Tuple[int, ...]


@dataclass(frozen=True)
class Truncation:
    """Total-degree cutoff."""

    total: int

    def keeps(self, exps: Exps) -> bool:
        return sum(exps) <= self.total


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
    def constant(cls, ring, vars, trunc, value):
        s = cls(ring, vars, trunc)
        if not ring.is_zero(value):
            s.terms[(0,) * len(s.vars)] = value
        return s

    @classmethod
    def one(cls, ring, vars, trunc):
        return cls.constant(ring, vars, trunc, ring.one())

    @classmethod
    def variable(cls, ring, vars, trunc, name):
        s = cls(ring, vars, trunc)
        e = [0] * len(s.vars)
        e[s.vars.index(name)] = 1
        if trunc.keeps(tuple(e)):
            s.terms[tuple(e)] = ring.one()
        return s

    def clone_empty(self) -> "TruncatedSeries":
        return TruncatedSeries(self.ring, self.vars, self.trunc)

    # -- bookkeeping -------------------------------------------------------

    def _zero_exps(self) -> Exps:
        return (0,) * len(self.vars)

    def is_zero(self) -> bool:
        return not self.terms

    def prune(self) -> "TruncatedSeries":
        self.terms = {e: c for e, c in self.terms.items()
                      if not self.ring.is_zero(c)}
        return self

    def coefficient(self, exps: Exps):
        return self.terms.get(tuple(exps), self.ring.zero())

    def constant_term(self):
        return self.terms.get(self._zero_exps(), self.ring.zero())

    def max_magnitude(self) -> float:
        if not self.terms:
            return 0.0
        return max(self.ring.magnitude(c) for c in self.terms.values())

    def with_truncation(self, trunc: Truncation) -> "TruncatedSeries":
        out = TruncatedSeries(self.ring, self.vars, trunc)
        for e, c in self.terms.items():
            if trunc.keeps(e):
                out.terms[e] = c
        return out

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
                               self.ring.mul_terms(small, big,
                                                   self.trunc.total))

    def pow_cached(self, n: int, cache: Dict[int, "TruncatedSeries"]
                   ) -> "TruncatedSeries":
        got = cache.get(n)
        if got is not None:
            return got
        if n == 0:
            out = TruncatedSeries.one(self.ring, self.vars, self.trunc)
        else:
            out = self.pow_cached(n - 1, cache) * self
        cache[n] = out
        return out

    # -- analytic helpers ----------------------------------------------------

    def invert_unit(self) -> "TruncatedSeries":
        """Inverse of a series with invertible constant term."""
        ring = self.ring
        c0 = self.constant_term()
        if ring.is_zero(c0, scale=self.max_magnitude() if not ring.exact else None):
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

    def exp(self) -> "TruncatedSeries":
        """exp of a series with zero constant term."""
        if not self.ring.is_zero(self.constant_term()):
            raise ValueError("exp requires a zero constant term")
        acc = TruncatedSeries.one(self.ring, self.vars, self.trunc)
        pw = acc
        fact = Fraction(1)
        for j in range(1, self.trunc.total + 1):
            pw = pw * self
            if pw.is_zero():
                break
            fact *= j
            acc = acc + pw.scalar_mul(self.ring.from_fraction(1 / fact))
        return acc

    def dump(self) -> str:
        """Golden-file format: one 'exponents : scalar' line, sorted."""
        lines = []
        for e in sorted(self.terms):
            lines.append(f"{e} : {self.terms[e]}")
        return "\n".join(lines)

    def __repr__(self):
        return (f"TruncatedSeries(vars={self.vars}, total={self.trunc.total}, "
                f"terms={len(self.terms)})")


# ---------------------------------------------------------------------------
# linear forms
# ---------------------------------------------------------------------------


@dataclass
class LinearForm:
    """constant + sum coeffs[v] * t_v over a scalar ring.

    ``from_rational`` also sets `fractions`, the nonzero linear
    coefficients as exact rationals, and `rational`, the same scaled so
    that its first coefficient is 1: the key under which equal forms are
    merged, in either ring.
    """

    coeffs: Dict[str, object]
    constant: object
    rational: Optional[Tuple[Tuple[str, Fraction], ...]] = None
    fractions: Optional[Dict[str, Fraction]] = None

    @classmethod
    def from_rational(cls, ring, coeffs: Dict[str, Fraction],
                      constant) -> "LinearForm":
        coeffs = {v: q for v, q in coeffs.items() if q}
        lead = coeffs[min(coeffs)] if coeffs else 1
        return cls({v: ring.from_fraction(q) for v, q in coeffs.items()},
                   constant, tuple(sorted((v, q / lead)
                                          for v, q in coeffs.items())),
                   coeffs)

    def is_constant_free(self, ring) -> bool:
        if ring.exact:
            return ring.is_zero(self.constant)
        return ring.is_zero(self.constant, scale=max(
            (ring.magnitude(c) for c in self.coeffs.values()), default=0.0))

    def as_series(self, ring, vars, trunc) -> TruncatedSeries:
        s = TruncatedSeries.constant(ring, vars, trunc, self.constant)
        n = len(s.vars)
        for v, c in self.coeffs.items():
            if ring.is_zero(c):
                continue
            e = [0] * n
            e[s.vars.index(v)] = 1
            e = tuple(e)
            if trunc.keeps(e):
                cur = s.terms.get(e)
                s.terms[e] = c if cur is None else cur + c
        return s.prune()

    def inverse_power(self, ring, vars, trunc: Truncation, k: int,
                      box: Optional[Sequence[int]] = None
                      ) -> TruncatedSeries:
        """(a + sum_v c_v t_v)^(-k) for a nonzero constant a and k >= 1.

        The coefficient of t^e is (k)_n (-1/a)^n a^(-k) prod_v c_v^(e_v)/e_v!
        with n = |e|.  Over the common denominator D of the rational
        c_v = p_v / D, the factor (k)_n prod_v p_v^(e_v)/e_v! is an integer,
        so each term is one integer multiple of the precomputed power
        a^(-k) (-1/(a D))^n.  `box`, one bound per entry of `vars`, keeps
        only the terms with e_v <= box_v.
        """
        if self.fractions is None:
            raise ValueError("inverse_power needs the rational coefficients; "
                             "build the form with from_rational")
        if self.is_constant_free(ring):
            raise NonDivisible("cannot invert a linear form with zero "
                               "constant term")
        vars = tuple(vars)
        top = trunc.total
        den = math.lcm(*(q.denominator for q in self.fractions.values()))
        a_inv = ring.inv(self.constant)
        step = -ring.scale(a_inv, Fraction(1, den))
        powers, rising = [a_inv ** k], [1]  # a^(-k) (-1/(a D))^n, (k)_n
        for n in range(top):
            powers.append(powers[-1] * step)
            rising.append(rising[-1] * (k + n))
        # (exponents, prod p_v^(e_v), prod e_v!, |e|), one variable at a time
        partial = [((0,) * len(vars), 1, 1, 0)]
        for v, q in self.fractions.items():
            pos = vars.index(v)
            p = q.numerator * (den // q.denominator)
            cap = top if box is None else box[pos]
            grown = []
            for e, pe, fe, n in partial:
                head, tail = e[:pos], e[pos + 1:]
                for j in range(min(top - n, cap) + 1):
                    grown.append((head + (j,) + tail, pe, fe, n + j))
                    pe *= p
                    fe *= j + 1
            partial = grown
        terms = {e: ring.scale(powers[n], rising[n] // fe * pe)
                 for e, pe, fe, n in partial}
        return TruncatedSeries(ring, vars, trunc, terms)

    def normalized(self, ring) -> Tuple["LinearForm", object]:
        """Scale so the first (by variable order) nonzero coefficient is 1.

        Returns (normal form, scale) with self = scale * normal form.
        """
        lead = None
        for v in sorted(self.coeffs):
            if not ring.is_zero(self.coeffs[v]):
                lead = self.coeffs[v]
                break
        if lead is None:
            raise ValueError("linear form with no linear part")
        inv = ring.inv(lead)
        coeffs = {v: c * inv for v, c in self.coeffs.items()
                  if not ring.is_zero(c)}
        return LinearForm(coeffs, self.constant * inv, self.rational), lead

    def key(self, ring):
        """Equal for forms that agree up to a nonzero scale."""
        if self.rational is not None:
            return self.rational
        if not ring.exact:
            raise ValueError("a numeric form is keyed by its rational "
                             "coefficients; build it with from_rational")
        return tuple(sorted((v, c) for v, c in self.normalized(ring)[0]
                            .coeffs.items()))


# ---------------------------------------------------------------------------
# exact division by a constant-free linear form
# ---------------------------------------------------------------------------


def _residual_ok(s, residual_terms, residuals) -> bool:
    ring = s.ring
    if ring.exact:
        return not residual_terms
    norm = 0.0
    for c in residual_terms.values():
        norm = max(norm, ring.magnitude(c))
    tol = 2.0 ** (-ring.precision / 2) * max(1.0, s.max_magnitude())
    if residuals is not None:
        residuals.append(norm)
    return norm <= tol


def divide_exact(s: TruncatedSeries, form: LinearForm,
                 residuals: Optional[List[float]] = None) -> TruncatedSeries:
    """Divide s by a linear form with zero constant term.

    Slice recurrence: peel one form variable at a time.  With
    l = c_p t_p + l', matching coefficients of t_p^j in q*l = s gives
    s_j = c_p q_{j-1} + l' q_j, solved bottom-up with a recursive division
    of each right-hand side by l'; only scalar operations are used.

    Exact mode demands a literally zero remainder and raises NonDivisible
    (carrying the residual terms) otherwise.  Numeric mode tolerates
    residual norms below 2^(-precision/2) * |s| and records them.
    """
    ring = s.ring
    if not form.is_constant_free(ring):
        raise ValueError("divide_exact needs a constant-free linear form")
    if s.is_zero():
        return s.clone_empty()
    order = sorted((v for v in form.coeffs if not ring.is_zero(form.coeffs[v])),
                   key=lambda v: (-ring.magnitude(form.coeffs[v]), v))
    residual_box: Dict[Exps, object] = {}

    def acc_res(e, c):
        cur = residual_box.get(e)
        tot = c if cur is None else cur + c
        if ring.is_zero(tot):
            residual_box.pop(e, None)
        else:
            residual_box[e] = tot

    def rec(terms: Dict[Exps, object], vars_left) -> Dict[Exps, object]:
        v = vars_left[0]
        p = s.vars.index(v)
        cv = form.coeffs[v]
        if len(vars_left) == 1:
            out: Dict[Exps, object] = {}
            cv_inv = ring.inv(cv)
            for e, c in terms.items():
                if e[p] == 0:
                    acc_res(e, c)
                    continue
                ne = list(e)
                ne[p] -= 1
                out[tuple(ne)] = c * cv_inv
            return out
        slices: Dict[int, Dict[Exps, object]] = {}
        for e, c in terms.items():
            j = e[p]
            e0 = list(e)
            e0[p] = 0
            slices.setdefault(j, {})[tuple(e0)] = c
        top = max(slices) if slices else -1
        out: Dict[Exps, object] = {}
        q_prev: Dict[Exps, object] = {}
        rest = vars_left[1:]
        for j in range(top + 1):
            rhs = dict(slices.get(j, {}))
            for e, c in q_prev.items():
                cur = rhs.get(e)
                val = -(c * cv)
                rhs[e] = val if cur is None else cur + val
            rhs = {e: c for e, c in rhs.items() if not ring.is_zero(c)}
            qj = rec(rhs, rest)
            for e, c in qj.items():
                ne = list(e)
                ne[p] = j
                out[tuple(ne)] = c
            q_prev = qj
        return out

    q_terms = rec(dict(s.terms), order)
    if not _residual_ok(s, residual_box, residuals):
        raise NonDivisible("series is not divisible by the linear form",
                           residual=residual_box)
    out = s.clone_empty()
    for e, c in q_terms.items():
        if out.trunc.keeps(e) and not ring.is_zero(c):
            out.terms[e] = c
    return out


# ---------------------------------------------------------------------------
# rational forms
# ---------------------------------------------------------------------------


@dataclass
class RationalForm:
    """numerator / product of constant-free linear forms."""

    numerator: TruncatedSeries
    denominators: List[LinearForm] = field(default_factory=list)

    def normalized(self) -> "RationalForm":
        ring = self.numerator.ring
        num = self.numerator
        denoms = []
        for f in self.denominators:
            nf, scale = f.normalized(ring)
            num = num.scalar_mul(ring.inv(scale))
            denoms.append(nf)
        return RationalForm(num, denoms)


def sum_rational_forms(forms: Sequence[RationalForm],
                       residuals: Optional[List[float]] = None
                       ) -> TruncatedSeries:
    """Combine summands over the product of their distinct denominators and
    perform the exact divisions; the result is the holomorphic total."""
    if not forms:
        raise ValueError("no forms to sum")
    forms = [f.normalized() for f in forms]
    ring = forms[0].numerator.ring
    vars = forms[0].numerator.vars
    trunc = forms[0].numerator.trunc
    for f in forms[1:]:
        if f.numerator.vars != vars or f.numerator.trunc != trunc:
            raise ValueError("forms must share variables and truncation")

    # distinct denominators with their max multiplicity
    universe: Dict[tuple, Tuple[LinearForm, int]] = {}
    keyed: List[Tuple[TruncatedSeries, Dict[tuple, int]]] = []
    for f in forms:
        counts: Dict[tuple, int] = {}
        for d in f.denominators:
            k = d.key(ring)
            counts[k] = counts.get(k, 0) + 1
            if k not in universe:
                universe[k] = (d, 0)
        for k, m in counts.items():
            d, cur = universe[k]
            universe[k] = (d, max(cur, m))
        keyed.append((f.numerator, counts))

    total = TruncatedSeries(ring, vars, trunc)
    form_pows: Dict[tuple, Dict[int, TruncatedSeries]] = {
        k: {} for k in universe}
    for num, counts in keyed:
        for k, (d, mult) in universe.items():
            deficit = mult - counts.get(k, 0)
            if deficit > 0:
                dser = d.as_series(ring, vars, trunc)
                num = num * dser.pow_cached(deficit, form_pows[k])
        total = total + num

    for k, (d, mult) in universe.items():
        for _ in range(mult):
            total = divide_exact(total, d, residuals)
    return total
