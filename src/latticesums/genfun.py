"""Central evaluator for lattice-sum special values.

The closed form is a sum over bases B of the arrangement: a product of
one-dimensional kernels in the basis variables, averaged over coset
representatives, times one factor t_g / den_g for every functional g
outside the basis; the den_g depend on B alone, so a basis is one summand
and its factors meet the coset sum of its kernel products once.  Each
den_g is a rational combination of the functionals, t_g - 2 pi i c_g -
sum_f (t_f - 2 pi i c_f) <g, f^B>, and so is every edge denominator of
the polytope reconstruction.  One builder,
``EvaluationContext.combination``, returns such a combination as a
``LinearForm``: rational coefficients and the constant sum_f q_f c_f,
computed exactly from the functional constants, summed in integers over
one denominator; a den_g's coefficients are the relative form that the
arrangement table keeps per basis (``geometry``).  The form is singular
exactly when that constant is zero, and forms are merged by their
normalised rational coefficients.  Every unit inverse, a factor 1/den_g
of a full series, a factor collapsed to its Taylor coefficient or a
non-singular edge denominator of the polytope route, comes from one
integer product, ``_unit_numerators``, and so does the exponential
e^{t* . p} of a polytope vertex (``unit_parts``): the constants are
2 pi i times exact rationals, so the product of all the inverses of a
summand (or of a vertex, with its exponential) is a root of unity times a
series over Q (over Q(i) for Gaussian constants) in t / (2 pi i),
multiplied in integers.  Each coefficient is then built once from its
int numerators (``ring.unit_lift``): (2 pi i)^(-n) is a power of pi, a
power of 2 in the one denominator and a power of i that turns the root,
and numeric mode rounds there for the first time, once per term.  Such
products add in integers before any lift (``lift_units``), so a full
series lifts every summand with no singular factor, and the polytope
route every vertex with no singular edge, in one ``ring.unit_lift``.
Numeric mode takes the same decisions from the same exact data, and
keeps y exact too (a float y at its binary value), so that only values
are rounded.  Taylor coefficients of the holomorphic total give the
special values S via the weight prefactor prod_f -(2 pi i)^{k_f} / k_f!.

Every summand reads its kernels one grid per coset
(``_coset_grids``): the products prod_m a_m(w)[e_m] of the kernels'
root-free parts, with the coset's one root e^{2 pi i q_w} kept apart, to
be applied once, or not at all when q_w is an integer.

The evaluator divides nothing.  In the field of iterated Laurent series
in which each variable dominates those of later functionals (G. Xin, *A
fast algorithm for MacMahon's partition analysis*, Electron. J. Combin.
11 (2004) R58), every summand has its own expansion and their sum is the
expansion of the holomorphic total, its Taylor series; so [t^k] of the
total is the sum over the summands of their own [t^k]
(``_unit_summand_value``).  Each t_g outside the basis appears only in
t_g / den_g, den_g = t_g - U_g, and collapses by one of three rules: a
unit den_g gives -U_g^{-k_g} (0 at k_g <= 0); a singular den_g whose t_g
precedes every variable of U_g gives U_g^{-k_g} for k_g <= 0, so 1 at
k_g = 0, and 0 for k_g > 0; any other singular den_g gives -U_g^{-k_g}
(0 at k_g <= 0), U_g^{-k} expanded around its first variable.  What is
left is read at k_B in the basis variables, from the integer series of
the collapsed factors and each coset's grid.  ``coefficient`` reads one
k; ``generating_function`` reads every exponent through its order, but
lifts the summands with no singular factor, Taylor series, together
(``summand_parts``).  The reads at exponents with one entry -1, at a
variable that leads a singular factor, must cancel
(``_check_holomorphy``).  Only the two check routes divide
(``series.sum_rational_forms``): the polytope reconstruction and the
hierarchy check.

Each input rule has one home: a context fixes the mode, precision and
phi (``_context``), ``lattice_sum_value`` refuses the excluded points and
``polytope.genfun_via_polytopes`` the singular locus.

``coefficient`` keeps its values in one process-wide table of
``COEFFICIENT_TABLE_SIZE`` entries, least recently used dropped first.
The key holds everything the value depends on: rank, directions, exact
constants, exact y, mode, cyclotomic order or precision, phi and k.  The
values are stored as plain data (``ring.detach``), so no entry keeps a
field or a context alive.  The zeta row of the reference table that
repeats one of its nine-functional rank-two rows reads the value back
from the table.
"""

from __future__ import annotations

import copy
import itertools
import math
import numbers
import time
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, le, mul, sub
from typing import Dict, List, Optional, Sequence, Tuple

from . import intlinalg
from .errors import ExcludedPoint, NonDivisible
from .kernel import KernelParams, kernel_base, kernel_parts, nonzero_parts
# unused here, but the benchmark's tracer patches genfun.kernel_series and
# genfun.kernel_series_dy
from .kernel import kernel_series, kernel_series_dy  # noqa: F401
from .lattice import (Arrangement, GaussianRational, GenericDirection,
                      arrangement_data, choose_phi, is_generic,
                      on_excluded_hyperplanes, residue)
# unused here, but the benchmark's tracer patches genfun.frac_part
from .lattice import frac_part  # noqa: F401
from .scalar import ExactRing, NumericRing
from .series import LinearForm, TruncatedSeries, Truncation, convolve
# unused here, but the benchmark's tracer patches genfun.sum_rational_forms
from .series import sum_rational_forms  # noqa: F401


@dataclass(frozen=True)
class WeightVector:
    """Nonnegative integer weights, one per functional."""

    weights: Tuple[int, ...]

    @classmethod
    def make(cls, weights) -> "WeightVector":
        weights = tuple(weights)
        # int() would truncate 2.9 to 2, and True is an int in Python
        if any(isinstance(x, bool) or not isinstance(x, numbers.Integral)
               for x in weights):
            raise ValueError(f"weights must be integers, got {weights}")
        w = tuple(int(x) for x in weights)
        if any(x < 0 for x in w):
            raise ValueError("weights must be nonnegative")
        return cls(w)

    @property
    def total(self) -> int:
        return sum(self.weights)

    def zero_set(self) -> Tuple[int, ...]:
        return tuple(i for i, k in enumerate(self.weights) if k == 0)

    def positive_set(self) -> Tuple[int, ...]:
        return tuple(i for i, k in enumerate(self.weights) if k > 0)

    def one_set(self) -> Tuple[int, ...]:
        return tuple(i for i, k in enumerate(self.weights) if k == 1)


@dataclass
class EvaluationReport:
    value: object
    series_order: int
    mode: str
    n_cyclotomic: Optional[int] = None
    timing_ms: float = 0.0
    C: object = None  # the coefficient that S is read from

    def to_json(self) -> dict:
        return {
            "S": str(self.value),
            "mode": self.mode,
            "order": self.series_order,
            "N_cyclotomic": self.n_cyclotomic,
            "timing_ms": round(self.timing_ms, 3),
            "C": str(self.C),
        }


def cyclotomic_order(arr: Arrangement, y: Sequence) -> int:
    """Smallest safe N: every exponential e^{-2 pi i q} met while evaluating
    at (arr, y) lies in Q(zeta_N).

    The constants pair multiplicatively with the fractional parts (and with
    the polytope vertex coordinates), so N collects the products of their
    denominators, not just the denominators themselves.
    """
    cdens = [f.rational_constant().denominator for f in arr.functionals]
    yq = [Fraction(v) for v in y]
    q = math.lcm(*(v.denominator for v in yq))
    ynum = [v.numerator * (q // v.denominator) for v in yq]
    N = math.lcm(4, *cdens)
    for duals in arrangement_data(arr).integer_duals:
        for m, (den, num) in duals.items():
            # <y, f^B> = <ynum, num> / (q den), in lowest terms
            ip_den = q * den // math.gcd(sum(map(mul, ynum, num)), q * den)
            N = math.lcm(N, cdens[m] * math.lcm(den, ip_den))
    return N


class EvaluationContext:
    """Per-(arrangement, y, mode) state shared by all evaluation calls.

    What the directions fix, the bases, phi, the integer duals D f^B, the
    sides of phi and the relative forms of the den_g, is read from the
    arrangement table (``lattice.arrangement_data``), shared by every
    context over the same directions.  A context brings in, once, y as
    integers Y over one denominator q and the constants as integer real
    and imaginary numerators over one denominator, and adds the scalars:
    the denominators den_g of each basis (``geometry``), the fractional
    parts (``yhat``, one integer residue each) and the kernels, computed
    once per ring.  A caller's phi must be generic
    (``lattice.is_generic``), else ValueError."""

    def __init__(self, arr: Arrangement, y: Sequence, mode: str = "exact",
                 precision: int = 128, phi: Optional[GenericDirection] = None):
        if mode not in ("exact", "numeric"):
            raise ValueError("mode must be 'exact' or 'numeric'")
        if len(y) != arr.rank:
            raise ValueError("y must have one entry per dimension")
        if phi is not None and not is_generic(arr, phi.phi):
            raise ValueError(f"phi {phi.phi} is not generic: it is "
                             f"orthogonal to the dual of a basis member")
        self.mode = mode
        self.precision = precision
        self.phi = phi or choose_phi(arr)
        # floats are taken at their exact binary value in both modes
        self.y = tuple(Fraction(v) for v in y)
        self._q = math.lcm(*(v.denominator for v in self.y))
        self._Y = tuple(v.numerator * (self._q // v.denominator)
                        for v in self.y)
        self._set_arrangement(arr)
        if mode == "exact":
            self.N = cyclotomic_order(arr, self.y)
            self.ring = ExactRing(self.N)
        else:
            self.N = None
            self.ring = NumericRing(precision)
        # the kernel tables, keyed by values alone (constant, fractional
        # part, order), so that a restricted context can share them
        self._bases: Dict[tuple, list] = {}
        self._parts: Dict[tuple, tuple] = {}

    def _set_arrangement(self, arr: Arrangement) -> None:
        """The fields that depend on the arrangement, and only those: every
        one read by basis or functional index is set here, so that a
        restricted context reads none of its parent's."""
        self.arr = arr
        self.data = arrangement_data(arr)
        self.vars = tuple(f"t{i}" for i in range(arr.size))
        self._constants = [f.exact_constant() for f in arr.functionals]
        self._sides = self.data.sides(self.phi.phi)
        parts = [(c.re, c.im) if isinstance(c, GaussianRational) else (c, 0)
                 for c in self._constants]
        # c_x = (re[x] + i im[x]) / cden, and as a kernel key its parts in
        # lowest terms
        cden = self._cden = math.lcm(*(x.denominator for p in parts
                                       for x in p))
        self._re = [re.numerator * (cden // re.denominator) for re, _ in parts]
        self._im = [im.numerator * (cden // im.denominator) for _, im in parts]
        self._ckeys = [(re.numerator, re.denominator, im.numerator,
                        im.denominator) for re, im in parts]

    def restricted(self, keep: Sequence[int]) -> "EvaluationContext":
        """The context of ``arr.restricted(keep)`` at the same y and phi,
        in this ring, reading this context's kernel tables: every basis of
        the sub-arrangement is one here, with the same duals and constants,
        so its cyclotomic order divides this one and phi stays generic."""
        sub = copy.copy(self)
        sub._set_arrangement(self.arr.restricted(keep))
        return sub

    # -- scalar helpers -----------------------------------------------------

    def constant(self, i: int):
        """c_i exactly: a Fraction when real, else a GaussianRational."""
        return self._constants[i]

    def combination(self, lin: Dict[int, Fraction]) -> LinearForm:
        """sum_x lin[x] (t_x - 2 pi i c_x), a rational combination of the
        functionals, as every denominator of the basis sum and of the
        polytope edges is.  The one place that decides whether a
        denominator is singular: its constant sum_x lin[x] c_x is summed
        from the exact constants, in integers over the lcm of lin's
        denominators times the constants' one denominator, and made one
        Fraction (two for a Gaussian one), never from a rounded value."""
        lin = {x: q if type(q) is Fraction else Fraction(q)
               for x, q in lin.items() if q}
        den = math.lcm(*(q.denominator for q in lin.values()))
        re = im = 0
        for x, q in lin.items():
            p = q.numerator * (den // q.denominator)
            re += p * self._re[x]
            im += p * self._im[x]
        c = Fraction(re, den * self._cden)
        if im:
            c = GaussianRational(c, Fraction(im, den * self._cden))
        return LinearForm.normalised({self.vars[x]: q
                                      for x, q in lin.items()}, den, c)

    def _residue(self, bidx: int, w: Tuple[int, ...], member: int
                 ) -> Tuple[int, int]:
        """(r, d): r / d is the fractional part of <y + w, f^B> for
        `member` of basis bidx on the side of phi, from the integer dual
        D f^B of the table, d = q D (``lattice.residue``)."""
        D, dual = self.data.integer_duals[bidx][member]
        d = self._q * D
        num = sum(map(mul, self._Y, dual)) + self._q * sum(map(mul, w, dual))
        return residue(num, d, self._sides[bidx][member]), d

    def yhat(self, bidx: int, w: Tuple[int, ...], member: int) -> Fraction:
        """The fractional part of <y + w, f^B> for `member` of basis bidx,
        on the side of phi, as ``lattice.frac_part`` reads it: one
        integer residue over q D (``_residue``)."""
        return Fraction(*self._residue(bidx, w, member))

    def kernel(self, bidx: int, w: Tuple[int, ...], member: int,
               order: int) -> Tuple[Dict[int, object], object]:
        """`(a, q)`: the kernel of `member` at its fractional part for
        (bidx, w), through degree `order`, is e^{2 pi i q} sum_n a[n] t^n,
        `a` its nonzero root-free parts (``kernel.nonzero_parts``).  Both
        are cached under the kernel's constant and fractional part as
        ints in lowest terms, and the order (distinct cosets and bases
        often share them), so that a hit builds no ``KernelParams``, and
        their B_k(lam) / k! by the constant and the order."""
        r, d = self._residue(bidx, w, member)
        g = math.gcd(r, d)
        key = (self._ckeys[member], r // g, d // g, order)
        got = self._parts.get(key)
        if got is None:
            params = KernelParams.make(self.constant(member),
                                       Fraction(r // g, d // g))
            q = -params.b * params.y
            bkey = (None if params.integral else self._ckeys[member], order)
            base = self._bases.get(bkey)
            if base is None:
                base = self._bases[bkey] = kernel_base(self.ring, params,
                                                       order)
            got = self._parts[key] = (nonzero_parts(
                self.ring, kernel_parts(self.ring, params, order, base), q),
                q)
        return got

    # -- basis geometry ------------------------------------------------------

    def geometry(self, bidx: int) -> Dict[int, LinearForm]:
        """``{g: den_g}`` for each g outside basis bidx, with
        den_g = t_g - 2 pi i c_g - sum_f (t_f - 2 pi i c_f) <g, f^B>: the
        relative form of the arrangement table with its constant
        (``combination``)."""
        return {g: self.combination(lin)
                for g, (lin, _) in self.data.relative_forms[bidx].items()}


def _context(arr: Arrangement, y: Sequence, mode: Optional[str],
             precision: Optional[int], phi: Optional[GenericDirection],
             ctx: Optional[EvaluationContext]) -> EvaluationContext:
    """A new context from the settings given, those unset (None) at the
    context's defaults, or `ctx` after checking that it was built for the
    rank, the functionals and the exact y of (arr, y) and with each
    setting given."""
    given = {k: v for k, v in dict(mode=mode, precision=precision,
                                   phi=phi).items() if v is not None}
    if ctx is None:
        return EvaluationContext(arr, y, **given)
    if (arr.rank != ctx.arr.rank
            or [f.direction for f in arr.functionals]
            != [f.direction for f in ctx.arr.functionals]
            or [f.exact_constant() for f in arr.functionals] != ctx._constants
            or tuple(Fraction(v) for v in y) != ctx.y):
        raise ValueError("the evaluation context was built for another "
                         "arrangement or another y")
    for name, v in given.items():
        if getattr(ctx, name) != v:
            raise ValueError(f"the evaluation context was built with {name} "
                             f"{getattr(ctx, name)!r}, not {v!r}")
    return ctx


# ---------------------------------------------------------------------------
# full series assembly
# ---------------------------------------------------------------------------


@dataclass
class Summand:
    """One basis's term: the sum of its kernel products over its coset
    representatives times its weight 1/|Z^r/L_B| and its factors."""

    bidx: int
    weight: Fraction
    unit_factors: List[Tuple[int, LinearForm]] = field(default_factory=list)
    degenerate_factors: List[Tuple[int, LinearForm]] = field(default_factory=list)

    @property
    def denominators(self) -> List[LinearForm]:
        """The singular den_g, the denominators of its rational form."""
        return [cf for _, cf in self.degenerate_factors]


def build_summands(ctx: EvaluationContext) -> List[Summand]:
    out = []
    for bidx, b in enumerate(ctx.arr.bases):
        s = Summand(bidx, Fraction(1, b.index))
        for g, den in ctx.geometry(bidx).items():
            factors = s.degenerate_factors if den.singular else s.unit_factors
            factors.append((g, den))
        out.append(s)
    return out


def summand_parts(ctx: EvaluationContext, s: Summand, trunc: Truncation
                  ) -> UnitParts:
    """The summand's numerator in every variable, truncated at `trunc`,

        weight * sum_w prod_m K_m(w) * prod_unit t_g / den_g
               * prod_singular t_g,

    as the integer parts of one unit product, before the lift, so that
    the summands with no singular factor are lifted together
    (``generating_function``); over the singular den_g it is the
    summand's rational form, which the hierarchy check lifts on its own.

    Every t_g is a monomial, so everything else is built below `trunc` by
    one degree for each of them: the coset sum of kernel products, read
    from the root-free grids of ``_coset_grids``, each times its coset's
    root as a one-term series, and added in one ``ring.mul_terms`` (one
    coset with no root is its grid as it is), is the `times` of one
    ``unit_parts`` of the unit factors (den_g, 1), which carries the
    weight as its scale.  The monomial prod t_g is applied last, as one
    exponent shift of every key into `trunc`.  There are no parts
    when the t_g leave nothing below `trunc`."""
    ring = ctx.ring
    basis_vars = tuple(ctx.vars[m] for m in ctx.arr.bases[s.bidx].members)
    step = [0] * len(ctx.vars)
    for g, _ in s.degenerate_factors + s.unit_factors:
        step[g] += 1
    top = trunc.total - sum(step)
    if top < 0:
        return UnitParts({})
    low = Truncation(top)
    zero, one = (0,) * len(basis_vars), ring.one()
    cosets = TruncatedSeries(ring, basis_vars, low, ring.mul_terms(
        [({zero: one if root is None else root}, grid)
         for grid, root in _coset_grids(ctx, s.bidx, low)],
        low)).extend(ctx.vars, low)
    parts = unit_parts(ring, [(form, 1) for _, form in s.unit_factors],
                       ctx.vars, low, scale=s.weight, times=cosets.terms)
    parts.series = {tuple(map(add, e, step)): p
                    for e, p in parts.series.items()}
    return parts


def _coset_grids(ctx: EvaluationContext, bidx: int, trunc: Truncation
                 ) -> List[Tuple[Dict[tuple, object], object]]:
    """Per coset representative w of basis bidx, `(A_w, root)`: the
    product of its kernels prod_m K_m(w) is e^{2 pi i q_w} sum_e A_w[e]
    t_B^e, with A_w[e] = prod_m a_m(w)[e_m] the products of their
    root-free parts (``EvaluationContext.kernel``) on the exponents that
    `trunc` keeps, and q_w = sum_m q_m(w).  `root` is e^{2 pi i q_w} in
    the ring, or None when q_w is an integer, so that each coset's root
    is applied once, or not at all, by the caller."""
    members = ctx.arr.bases[bidx].members
    total = trunc.total
    tops = [min(total, b) for b in trunc.box or (total,) * len(members)]
    out = []
    for w in ctx.arr.bases[bidx].coset_reps:
        grid, q = {(): None}, 0
        for m, top in zip(members, tops):
            parts, qm = ctx.kernel(bidx, w, m, top)
            q += qm
            grid = {e + (n,): c if p is None else p * c
                    for e, p in grid.items() for n, c in parts.items()
                    if sum(e) + n <= total}
        integral = isinstance(q, Fraction) and q.denominator == 1
        out.append((grid, None if integral else ctx.ring.root_of_unity(q)))
    return out


def generating_function(arr: Arrangement, y: Sequence, order: int,
                        mode: Optional[str] = None,
                        precision: Optional[int] = None,
                        phi: Optional[GenericDirection] = None,
                        ctx: Optional[EvaluationContext] = None
                        ) -> TruncatedSeries:
    """Taylor expansion of the generating function through total degree
    `order`, at any y, excluded or not, with no division: the summands
    with no singular factor lifted together (``lift_units``), and every
    other summand read at each exponent through `order`
    (``_summand_reads``), checked at every exponent through `order` with
    one entry -1 at a variable that leads one of its singular factors."""
    ctx = _context(arr, y, mode, precision, phi, ctx)
    ring, trunc = ctx.ring, Truncation(order)
    summands = build_summands(ctx)
    total = lift_units(ring, ctx.vars, trunc,
                       [summand_parts(ctx, s, trunc)
                        for s in summands if not s.denominators])
    singular = [s for s in summands if s.denominators]
    if singular:
        n = len(ctx.vars)
        exps, lower = _exponents(n, order), _exponents(n - 1, order + 1)
        sums = _summand_reads(ctx, singular, exps, lambda v: [
            e[:v] + (-1,) + e[v:] for e in lower])
        total = total + TruncatedSeries(ring, ctx.vars, trunc, {
            e: c for e, c in zip(exps, sums) if not ring.is_zero(c)})
    return total


def _exponents(n: int, total: int) -> List[tuple]:
    """Every exponent of n nonnegative entries that sum to at most
    `total`."""
    if n == 0:
        return [()]
    return [(a,) + rest for a in range(total + 1)
            for rest in _exponents(n - 1, total - a)]


# ---------------------------------------------------------------------------
# single-coefficient extraction
# ---------------------------------------------------------------------------


def _dead_unit(ctx: EvaluationContext, bidx: int, g: int, form: LinearForm
               ) -> LinearForm:
    """U_g = a_g + U_g(t_B) for den_g = t_g - U_g, `form`, of basis bidx,
    so that the target Taylor coefficient [t_g^{k_g}] t_g / den_g of a
    unit factor is -U_g^{-k_g}; a singular den_g gives U_g with no
    constant.  Its coefficients are the table's (``relative_forms``), over
    den_g's denominator, its constant minus den_g's."""
    _, unit = ctx.data.relative_forms[bidx][g]
    return LinearForm.normalised({ctx.vars[f]: q for f, q in unit.items()},
                                 form.den, -form.c)


def _reciprocal(c) -> Tuple[object, int]:
    """1/c for a nonzero Fraction or GaussianRational c, as an int
    numerator, or a GaussianRational one with int parts, over a positive
    int."""
    if isinstance(c, Fraction):
        num, den = c.denominator, c.numerator
        return (num, den) if den > 0 else (-num, -den)
    d = math.lcm(c.re.denominator, c.im.denominator)
    a, b = int(c.re * d), int(c.im * d)
    # d / (a + b i) = d (a - b i) / (a^2 + b^2)
    den = a * a + b * b
    g = math.gcd(d * a, d * b, den)
    return GaussianRational(d * a // g, -d * b // g), den // g


def _unit_numerators(factors: Sequence[Tuple[LinearForm, int]], vars,
                     trunc: Truncation
                     ) -> Tuple[Dict[tuple, object], int, int]:
    """``(G, den, K)``: G = prod (-c + L)^(-k) over the (form, k) pairs, c
    the form's constant and L its linear part, on `vars` and truncated at
    `trunc`, as ``{e: numerator}`` over the positive int `den`; K is the
    sum of the k.  The numerators are ints, or GaussianRationals with int
    parts when a constant is Gaussian.  Each factor is expanded on
    ``LinearForm.monomials``, over one denominator, and the factors are
    convolved in ints (``series.convolve``): a unit factor (c != 0) as
    (-c)^(-k) sum_n C(k + n - 1, n) (L/c)^n, and a singular one (c = 0)
    in the field of iterated Laurent series in which each variable of
    `vars` dominates the later ones, for k > 0 around the first variable
    t_p of L = q_p t_p + L' as

        L^(-k) = sum_n C(k + n - 1, n) (-L')^n / (q_p t_p)^(k + n),

    every term of degree -k, and for k < 0 as the polynomial L^(-k).  The
    singular factors need a box and come last, by first variable.  G is
    exact on `trunc`: each partial product keeps every term from which
    one within `trunc` can follow, its degree capped at the total plus the
    singular k to come, and its exponent of t_u at box_u plus, while
    expansions around t_u are to come, their k and the caps of the later
    variables, the most that their L' carry there."""
    vars = tuple(vars)
    total, box = trunc.total, trunc.box
    steps = sorted(((min(map(vars.index, form.coeffs))
                     if form.singular and k > 0 else None, form, k)
                    for form, k in factors),
                   key=lambda x: (x[1].singular, x[0] is not None, x[0] or 0))
    caps = list(box or ())
    for p in reversed(range(len(caps))):
        ks = sum(k for q, _, k in steps if q == p)
        if ks:
            caps[p] += ks + sum(caps[p + 1:])
    if caps and min(caps) < 0:
        return {}, 1, sum(k for _, k in factors)
    terms: Dict[tuple, object] = {(0,) * len(vars): 1}
    den = 1
    for i, (p, form, k) in enumerate(steps):
        later = steps[i + 1:]
        leads = {q for q, _, _ in later}
        step = Truncation(
            total + sum(k2 for _, f, k2 in later if f.singular),
            box and tuple(c if u in leads else b
                          for u, (b, c) in enumerate(zip(box, caps))))
        if form.singular and p is None:
            # L^m = (D L)^m / D^m, its terms of degree m = -k
            fac = [t for t in form.monomials(vars, step, -k) if t[2] == -k]
            den *= form.den ** -k
        else:
            if p is None:
                # w = 1/c = x/a, over a^k (a D)^top
                x, a = _reciprocal(form.c)
                first, b = -x, a * form.den
                monos = form.monomials(vars, step, step.total)
            else:
                # 1/q_p = x/a, -L' = -(d L')/d, over a^k (a d)^top
                v = vars[p]
                rest = LinearForm({u: q for u, q in form.coeffs.items()
                                   if u != v})
                q = form.coeffs[v]
                a, x = abs(q.numerator), q.denominator * (1 if q > 0 else -1)
                first, x, b = x, -x, a * rest.den
                monos = [(e[:p] + (-k - n,) + e[p + 1:], m, n)
                         for e, m, n in rest.monomials(
                             vars, step, sum(step.box[p + 1:]))]
            top = max(n for _, _, n in monos)
            # degree n: first^k x^n C(k + n - 1, n) b^(top - n), over a^k b^top
            power = 1
            for _ in range(k):
                power = power * first
            coef = []
            for n in range(top + 1):
                coef.append(power * (math.comb(k + n - 1, n) * b ** (top - n)))
                power = power * x
            den *= a ** k * b ** top
            fac = [(e, coef[n] * m, n if p is None else -k)
                   for e, m, n in monos]
        terms = convolve(terms, fac, step)
    return terms, den, sum(k for _, k in factors)


@dataclass
class UnitParts:
    """A unit product before its lift: ``series = {e: [(n, v, x)]}`` with
    the int `den`, the `K` and the rational `scale`, so that the
    coefficient of t^e is sum x v scale / (den (2 pi i)^(K + n)), as
    ``ring.unit_lift`` reads them."""

    series: Dict[tuple, list]
    den: int = 1
    K: int = 0
    scale: Fraction = Fraction(1)


def unit_parts(ring, factors: Sequence[Tuple[LinearForm, int]], vars,
               trunc: Truncation, exponent: Optional[LinearForm] = None,
               scale=1, times: Optional[Dict[tuple, object]] = None
               ) -> UnitParts:
    """The rational `scale` times prod (a + L)^(-k) over the (form, k)
    pairs, a = -2 pi i c the form's constant (nonzero) and L its linear
    part, times e^exponent when an exponent form is given, or else times
    the series term map `times` when one is given, on `vars` and
    truncated at `trunc`, as the integer parts of its one lift
    (``lift_units``): the unit factors 1/den_g of a summand of a full
    series times its coset sum, with its weight, and the whole numerator
    of a polytope vertex, its exponential and its non-singular edge
    denominators with its weight.

    Since (-2 pi i c + L(t))^(-k) = (2 pi i)^(-k) (-c + L(t / 2 pi i))^(-k),
    the coefficient of t^e is (2 pi i)^(-(K + |e|)) G[e], K the sum of the
    k, where G = prod (-c + L)^(-k) is a series over Q (over Q(i) when a
    constant is a Gaussian rational), convolved in ints
    (``_unit_numerators``).  The exponential e^(-2 pi i c_E) e^(L_E) of an
    exponent form is a root times sum_n L_E^n / n!, a series over Q too:
    it is convolved last, into the terms of each degree n that came from
    the unit factors on their own.  Each term of G meets each term x of
    `times` (the root, or 1, when there is none), as one part (n, v, x) of
    the key it lands on: its int numerator v, over `den`, and the degree n
    that sets its power of 2 pi i."""
    vars = tuple(vars)
    total, box = trunc.total, trunc.box
    if any(form.singular for form, _ in factors):
        raise NonDivisible("cannot invert a linear form with zero "
                           "constant term")
    terms, den, K = _unit_numerators(factors, vars, trunc)
    if exponent is None:
        # each term of G meets each term of `times`, or the constant 1
        if times is None:
            times = {(0,) * len(vars): ring.one()}
        units = [(e, sum(e), v) for e, v in terms.items()]
        series = {}
        for eb, x in times.items():
            nb = sum(eb)
            for eu, n, v in units:
                if nb + n > total:
                    continue
                e = tuple(map(add, eb, eu))
                if box is None or all(map(le, e, box)):
                    series.setdefault(e, []).append((n, v, x))
    else:
        root = ring.root_of_unity(-exponent.c)
        monos = exponent.monomials(vars, trunc, total)
        top = max(n for _, _, n in monos)
        # the degree-n coefficient 1 / (n! D^n), over top! D^top
        fact = [math.factorial(n) for n in range(top + 1)]
        D = exponent.den
        den *= fact[top] * D ** top
        fac = [(e, fact[top] // fact[n] * D ** (top - n) * m, n)
               for e, m, n in monos]
        # n, the degree that came from the unit factors, sets the power of
        # 2 pi i of every term that the exponential's terms carry from it
        by_degree: Dict[int, Dict[tuple, object]] = {}
        for e, v in terms.items():
            by_degree.setdefault(sum(e), {})[e] = v
        series = {}
        for n, part in by_degree.items():
            for e, v in convolve(part, fac, trunc).items():
                series.setdefault(e, []).append((n, v, root))
    return UnitParts(series, den, K, Fraction(scale))


def lift_units(ring, vars, trunc: Truncation, parts: Sequence[UnitParts]
               ) -> TruncatedSeries:
    """The sum of the unit products `parts` (``unit_parts``), on `vars`
    and truncated at `trunc`, in one ``ring.unit_lift``: the parts are
    put over one denominator L, the lcm of their den times their scale's
    denominator sd, each v times L // (den sd) times the scale's
    numerator, and at the least K, each n raised by the part's K less that
    one.  So each coefficient of the sum is built once from its int
    numerators, the x they meet and their powers of 2 pi i, with no scalar
    made for any one part, and numeric mode rounds once per term."""
    L = math.lcm(*(p.den * p.scale.denominator for p in parts))
    K = min((p.K for p in parts), default=0)
    series: Dict[tuple, list] = {}
    for p in parts:
        m = L // (p.den * p.scale.denominator) * p.scale.numerator
        dn = p.K - K
        for e, terms in p.series.items():
            series.setdefault(e, []).extend(
                (n + dn, v * m, x) for n, v, x in terms)
    return TruncatedSeries(ring, vars, trunc, ring.unit_lift(series, L, K))


def _span(exps) -> Truncation:
    """The least truncation that keeps every exponent of `exps`."""
    exps = list(exps)
    return Truncation(max(map(sum, exps)),
                      tuple(max(col) for col in zip(*exps)))


def _unit_summand_value(ctx: EvaluationContext, s: Summand,
                        targets: Sequence[tuple]) -> list:
    """[t^k] of a summand at each exponent k of `targets`, with no series
    beyond what meets t^k:

        weight * sum_w e^{2 pi i q_w} sum_e F[e] * A_w[k_B - e],

    A_w the root-free grid of coset w (``_coset_grids``), as far as G
    reaches, and F the product of the [t_g^{k_g}] t_g / den_g, each by its
    collapse rule (module docstring).  F is read from its int series G
    over den (``_unit_numerators``: the unit factors' part, convolved with
    the singular factors' part), as F[e] = +-(2 pi i)^(-(K + |e|)) G[e] /
    den, with no scalar built for it: per coset and per degree n the sum
    over |e| = n of G[e] * A_w[k_B - e] is one integer combination of the
    grid values, lifted once, in one ``ring.unit_lift`` per exponent for
    every coset; each coset's one root of unity is applied last.  The
    grids are built once for all the exponents, the unit factors' part
    once per set of their k_g.  An entry may be -1 (``_check_holomorphy``).
    """
    ring = ctx.ring
    members = ctx.arr.bases[s.bidx].members
    vars = tuple(ctx.vars[m] for m in members)
    # (g, U_g, lead) per singular den_g = t_g - U_g, lead the functional
    # whose variable dominates, its first: g when t_g precedes all of U_g
    singular = [(g, _dead_unit(ctx, s.bidx, g, form),
                 min(map(ctx.vars.index, form.coeffs)))
                for g, form in s.degenerate_factors]
    reads = {}  # per unit k_g: [(target index, k_B, singular part, sign)]
    for i, kappa in enumerate(targets):
        units = tuple(kappa[g] for g, _ in s.unit_factors)
        if units and min(units) <= 0:
            continue  # [t_g^k_g] (t_g * unit) = 0
        factors, sign = [], (-1) ** len(units)
        for g, u, lead in singular:
            kg = kappa[g]
            if (kg > 0) if lead == g else (kg <= 0):
                break  # the read is zero
            if kg:
                factors.append((u, kg))
                if lead != g:
                    sign = -sign
        else:
            box = tuple(kappa[m] for m in members)
            if not factors:
                if min(box) >= 0:
                    reads.setdefault(units, []).append((i, box, None, sign))
                continue
            part = _unit_numerators(factors, vars, Truncation(sum(box), box))
            if part[0]:
                reads.setdefault(units, []).append((i, box, part, sign))
    out = [ring.zero()] * len(targets)
    products = []  # (target index, [(k_B - e, |e|, G[e])], den, K, sign)
    for units, group in reads.items():
        # the unit factors' part, once, on every exponent that a read meets
        U, uden, uK = _unit_numerators(
            [(_dead_unit(ctx, s.bidx, g, form), kg)
             for (g, form), kg in zip(s.unit_factors, units)], vars,
            _span(tuple(map(sub, box, e)) for _, box, part, _ in group
                  for e in (part[0] if part else [(0,) * len(vars)])))
        for i, box, part, sign in group:
            G, den, K = U, uden, uK
            if part:
                G = convolve(U, [(e, c, sum(e)) for e, c in part[0].items()],
                             Truncation(sum(box), box))
                den, K = den * part[1], K + part[2]
            # G[e] with the grid exponent k_B - e that it meets
            pairs = [(tuple(map(sub, box, e)), sum(e), c)
                     for e, c in G.items()]
            pairs = [p for p in pairs if min(p[0]) >= 0]
            if pairs:
                products.append((i, pairs, den, K, sign))
    if not products:
        return out
    grids = _coset_grids(ctx, s.bidx,
                         _span(e for _, pairs, *_ in products
                               for e, _, _ in pairs))
    for i, pairs, den, K, sign in products:
        series = {}
        for w, (grid, _) in enumerate(grids):
            parts = [(n, c, grid[e]) for e, n, c in pairs if e in grid]
            if parts:
                series[w] = parts
        lifted = ring.unit_lift(series, den, K)
        total = ring.zero()
        for w, (_, root) in enumerate(grids):
            acc = lifted.get(w)
            if acc is not None:
                total = total + (acc if root is None else acc * root)
        out[i] = ring.scale(total, sign * s.weight)
    return out


# the coefficients computed in this process, most recently used last (see
# the module docstring)
COEFFICIENT_TABLE_SIZE = 256
_coefficient_table: Dict[tuple, object] = {}


def clear_coefficient_table() -> None:
    """Forget every coefficient computed so far in this process."""
    _coefficient_table.clear()


def _table_key(ctx: EvaluationContext, k: WeightVector) -> tuple:
    """Everything the coefficient at k in `ctx` depends on."""
    scalars = ctx.N if ctx.ring.exact else ctx.ring.precision
    return (ctx.arr.rank, tuple(f.direction for f in ctx.arr.functionals),
            tuple(ctx._constants), ctx.y, ctx.mode, scalars, ctx.phi,
            k.weights)


def coefficient(arr: Arrangement, y: Sequence, k,
                mode: Optional[str] = None, precision: Optional[int] = None,
                phi: Optional[GenericDirection] = None,
                ctx: Optional[EvaluationContext] = None):
    """C(k, y; arrangement): k! times the Taylor coefficient at exponent k."""
    k = k if isinstance(k, WeightVector) else WeightVector.make(k)
    if len(k.weights) != arr.size:
        raise ValueError("one weight per functional required")
    ctx = _context(arr, y, mode, precision, phi, ctx)
    key = _table_key(ctx, k)
    stored = _coefficient_table.pop(key, None)
    if stored is None:
        value = _coefficient_components(ctx, k)
        fact = Fraction(1)
        for kf in k.weights:
            fact *= math.factorial(kf)
        stored = ctx.ring.detach(value * ctx.ring.from_fraction(fact))
        if len(_coefficient_table) >= COEFFICIENT_TABLE_SIZE:
            del _coefficient_table[next(iter(_coefficient_table))]
    _coefficient_table[key] = stored
    return ctx.ring.attach(stored)


def _coefficient_components(ctx: EvaluationContext, k: WeightVector):
    """[t^k] of the generating function: the sum over the summands of
    their reads at k (``_summand_reads``), checked at k with k_v = -1."""
    return _summand_reads(ctx, build_summands(ctx), [k.weights], lambda v: [
        k.weights[:v] + (-1,) + k.weights[v + 1:]])[0]


def _summand_reads(ctx: EvaluationContext, summands: Sequence[Summand],
                   targets: Sequence[tuple], checks) -> list:
    """Per exponent of `targets`, the sum over `summands` of their reads
    (``_unit_summand_value``), after ``_check_holomorphy`` of their reads
    at ``checks(v)`` for each v that leads (comes first in) a singular
    factor of theirs."""
    ring = ctx.ring
    sums = [ring.zero()] * len(targets)
    held: Dict[tuple, list] = {}
    size = 0.0
    for s in summands:
        extra = [e for v in sorted({min(map(ctx.vars.index, form.coeffs))
                                    for form in s.denominators})
                 for e in checks(v)]
        values = _unit_summand_value(ctx, s, list(targets) + extra)
        sums = [a + b for a, b in zip(sums, values)]
        for e, x in zip(extra, values[len(targets):]):
            held.setdefault(e, []).append(x)
        if not ring.exact:
            size = max(size, *map(ring.magnitude, values))
    _check_holomorphy(ring, held, size)
    return sums


def _check_holomorphy(ring, checks: Dict[tuple, list], size: float
                      ) -> None:
    """NonDivisible unless the summands' reads at each exponent of
    `checks` sum to zero: exactly in exact mode, and in numeric mode
    within 2^(-precision/2) times `size`, the largest read of the
    evaluation, as ``series.divide_exact`` measures its remainder by the
    largest term of what it divides (a check whose exact reads are all
    zero reads rounding noise, which cannot measure itself).

    The total is holomorphic: its expansion is its Taylor series, with no
    term at a negative exponent.  A summand whose factors v leads none of
    is a Taylor series in t_v and reads zero there.  So the check sees a
    summand left out, or taken with the wrong sign, that reads nonzero at
    one of these exponents, and nothing that reads zero at all of them."""
    tol = 0.0 if ring.exact else 2.0 ** (-ring.precision / 2) * size
    for e, reads in checks.items():
        total = sum(reads[1:], reads[0])
        if not (ring.is_zero(total) if ring.exact
                else ring.magnitude(total) <= tol):
            raise NonDivisible(f"the summands do not cancel at t^{e}: "
                               f"their sum is not holomorphic",
                               residual={e: total})


# ---------------------------------------------------------------------------
# special values
# ---------------------------------------------------------------------------


def weight_prefactor(ring, k: WeightVector):
    """prod_f -(2 pi i)^{k_f} / k_f!."""
    out = ring.from_fraction(Fraction((-1) ** len(k.weights)))
    tpi = ring.two_pi_i()
    for kf in k.weights:
        out = out * tpi**kf * ring.from_fraction(
            Fraction(1, math.factorial(kf)))
    return out


def lattice_sum_value(arr: Arrangement, y: Sequence, k,
                      mode: Optional[str] = None,
                      precision: Optional[int] = None,
                      phi: Optional[GenericDirection] = None,
                      ctx: Optional[EvaluationContext] = None
                      ) -> EvaluationReport:
    """The special value S(k, y; arrangement), with evaluation metadata and
    C(k, y).  The sum diverges at an excluded point, where exact mode
    raises ExcludedPoint and numeric mode warns."""
    t0 = time.perf_counter()
    k = k if isinstance(k, WeightVector) else WeightVector.make(k)
    ctx = _context(arr, y, mode, precision, phi, ctx)
    ones = set(k.one_set())
    bad = [i for i in arr.indispensable if i in ones]
    for i in bad:
        if not on_excluded_hyperplanes(ctx.y, arr, subset=[i]):
            continue
        message = (f"y lies on an excluded translated hyperplane for "
                   f"functional {i} (weight 1): the sum does not converge "
                   f"there")
        if ctx.mode == "numeric":
            warnings.warn(message)
            break
        raise ExcludedPoint(
            message, functional=i,
            hyperplane=f"span of directions other than #{i} + Z^r")
    c_val = coefficient(arr, ctx.y, k, ctx=ctx)
    value = weight_prefactor(ctx.ring, k) * c_val
    dt = (time.perf_counter() - t0) * 1000
    return EvaluationReport(
        value=value,
        series_order=k.total,
        mode=ctx.mode,
        n_cyclotomic=ctx.N,
        timing_ms=dt,
        C=c_val,
    )


# -- the zeta symmetry factor -----------------------------------------------


def _oriented(v):
    """(s, s v), the sign s = +-1 making the first nonzero entry positive."""
    s = -1 if next((x for x in v if x), 0) < 0 else 1
    return s, tuple(s * x for x in v)


def _symmetry_factor(arr: Arrangement, k: WeightVector) -> int:
    """The number of regions of the directions' hyperplanes, each summing
    to the zeta value, by which S(k, 0) is divided.

    v -> A v sends <d, v> + c to <T d, v> + c, T = A^T.  The symmetries
    are the T that carry each (direction, constant, weight) to +- one of
    the same multiset, with prod s_f^{k_f} = 1 over the signs: T maps the
    lines one to one, each d to s d' with the constants and weights of d'
    those of d times s, and the weights of the lines with s = -1 sum to
    an even number.  As every e_i is a direction, the columns T e_i are
    distinct signed directions, and |det T| = 1 follows with no inverse
    taken.  The factor is the orbit of the positive orthant, read off the
    signs of A (1,...,1), the column sums of T, on the lines.  Raises
    ValueError on a zero weight, on a wall e_i without a functional of
    constant 0, on a direction with entries of both signs (the orthant is
    no region), and unless the orbit holds every region, counted by
    Zaslavsky's theorem as the sum over the sets S of lines of
    (-1)^(|S| - rank S)."""
    r = arr.rank
    if not all(k.weights):
        raise ValueError(f"a zeta value needs positive weights: {k.weights}")
    parts = [(c.re, c.im) if isinstance(c, GaussianRational) else (c, 0)
             for c in (f.exact_constant() for f in arr.functionals)]
    D = math.lcm(*(x.denominator for p in parts for x in p))
    # per oriented direction, the (D c, k_f) of its functionals oriented
    # with it, sorted as they are (key 1) and negated (key -1)
    on: Dict[tuple, list] = {}
    for f, p, kf in zip(arr.functionals, parts, k.weights):
        s, d = _oriented(f.direction)
        on.setdefault(d, []).append((*(s * x.numerator * D // x.denominator
                                       for x in p), kf))
    signed = {d: {1: sorted(c), -1: sorted((-a, -b, kf) for a, b, kf in c)}
              for d, c in on.items()}
    units = [tuple(int(i == j) for j in range(r)) for i in range(r)]
    if any(e not in on or all(a or b for a, b, _ in on[e]) for e in units):
        raise ValueError("a wall of the positive orthant is not excluded: "
                         "a coordinate direction has no constant 0")
    if any(x < 0 for d in on for x in d):
        raise ValueError("the positive orthant is not a region: a "
                         "direction has entries of both signs")
    lines = sorted({tuple(x // math.gcd(*d) for x in d) for d in on})
    # distinct lines: rank S = min(|S|, r) unless |S| > 2 and r > 2
    regions = sum((-1) ** (n - (intlinalg.rank(S) if n > 2 and r > 2
                                else min(n, r)))
                  for n in range(len(lines) + 1)
                  for S in itertools.combinations(lines, n))
    weight = {d: sum(kf for *_, kf in c) for d, c in on.items()}
    orbit = set()
    for columns in itertools.permutations(on, r):
        for signs in itertools.product((1, -1), repeat=r):
            # the region of A (1,...,1), the column sums of T
            point = [s * sum(d) for s, d in zip(signs, columns)]
            region = tuple(sum(map(mul, line, point)) > 0 for line in lines)
            if region in orbit:
                continue
            rows = list(zip(*(tuple(s * x for x in d)
                              for s, d in zip(signs, columns))))
            # T e_i is the i-th column
            known = dict(zip(units, zip(signs, columns)))
            odd, images = 0, set()
            for d in on:
                s, td = known.get(d) or _oriented(
                    [sum(map(mul, d, row)) for row in rows])
                if td not in signed or signed[td][1] != signed[d][s]:
                    break
                odd += weight[d] if s < 0 else 0
                images.add(td)
            else:
                if len(images) == len(on) and odd % 2 == 0:
                    orbit.add(region)
                    if len(orbit) == regions:
                        return regions
    raise ValueError(f"the symmetries of the functionals carry the positive "
                     f"orthant to {len(orbit)} of the {regions} regions")


def zeta_from_S(arr: Arrangement, k, symmetry_factor: Optional[int] = None,
                mode: Optional[str] = None, precision: Optional[int] = None,
                ctx: Optional[EvaluationContext] = None):
    """The sum over positive integers: S(k, 0) over ``_symmetry_factor``,
    which a `symmetry_factor` given must equal (else ValueError)."""
    k = k if isinstance(k, WeightVector) else WeightVector.make(k)
    factor = _symmetry_factor(arr, k)
    if symmetry_factor not in (None, factor):
        raise ValueError(f"the symmetry factor is {factor}, not "
                         f"{symmetry_factor}")
    y0 = tuple(Fraction(0) for _ in range(arr.rank))
    ctx = _context(arr, y0, mode, precision, None, ctx)
    rep = lattice_sum_value(arr, y0, k, ctx=ctx)
    return ctx.ring.scale(rep.value, Fraction(1, factor))
