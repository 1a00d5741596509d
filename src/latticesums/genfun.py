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
integer product, ``_unit_product``, and so does the exponential
e^{t* . p} of a polytope vertex (``unit_parts``): the constants are
2 pi i times exact rationals, so the product of all the inverses of a
summand (or of a vertex, with its exponential) is a root of unity times a
series over Q (over Q(i) for Gaussian constants) in t / (2 pi i).  The
inverses are not multiplied pairwise: their product is read, degree by
degree and in integers, from its logarithmic derivative, one pass for
any number of factors.  Each coefficient is then built once from its
parts (m, v, x), an int numerator v over one denominator times a scalar
x over (2 pi i)^m (``ring.unit_lift``): (2 pi i)^(-m) is a power of pi,
a power of 2 in the one denominator and a power of i that turns x, and
numeric mode rounds there for the first time, once per coefficient, from
an exact sum of its parts on integer mantissas.  Such
products add in integers before any lift (``lift_units``), so a full
series lifts every summand with no singular factor, and the polytope
route every vertex with no singular edge, in one ``ring.unit_lift``.
Numeric mode takes the same decisions from the same exact data, and
keeps y exact too (a float y at its binary value), so that only values
are rounded.  Taylor coefficients of the holomorphic total give the
special values S via the weight prefactor prod_f -(2 pi i)^{k_f} / k_f!.

Every summand reads its kernels one grid per coset
(``_coset_grids``): the products prod_m a_m(w)[e_m] of the kernels'
root-free parts, with the coset's one root e^{2 pi i q_w} kept apart as
its exact exponent q_w, to be applied once per coset, and always by
``ring.times_root``, which in the exact ring moves exponents and builds
no root, or not at all when q_w is an integer.

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
        r, d = r // g, d // g
        key = (self._ckeys[member], r, d, order)
        got = self._parts.get(key)
        if got is None:
            params = KernelParams.at(self.constant(member), r, d)
            q = params.exponent()
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
    from the root-free grids of ``_coset_grids``, each grid moved by its
    coset's root (``ring.times_root``, no root built in the exact ring)
    and the grids added, is the `times` of one ``unit_parts`` of the unit
    factors (den_g, 1), which folds in the weight.  The monomial prod t_g
    is applied last, as one exponent shift of every key into `trunc`.
    There are no parts when the t_g leave nothing below `trunc`."""
    ring = ctx.ring
    basis_vars = tuple(ctx.vars[m] for m in ctx.arr.bases[s.bidx].members)
    step = [0] * len(ctx.vars)
    for g, _ in s.degenerate_factors + s.unit_factors:
        step[g] += 1
    top = trunc.total - sum(step)
    if top < 0:
        return UnitParts({})
    low = Truncation(top)
    acc: Dict[tuple, object] = {}
    for grid, q in _coset_grids(ctx, s.bidx, low):
        for e, c in grid.items():
            c = c if q is None else ring.times_root(c, q)
            cur = acc.get(e)
            acc[e] = c if cur is None else cur + c
    cosets = TruncatedSeries(ring, basis_vars, low, {
        e: c for e, c in acc.items() if not ring.is_zero(c)}
    ).extend(ctx.vars, low)
    parts = unit_parts(ring, [(form, 1) for _, form in s.unit_factors],
                       ctx.vars, low, scale=s.weight, times=cosets.terms)
    parts.series = {tuple(map(add, e, step)): p
                    for e, p in parts.series.items()}
    return parts


def _coset_grids(ctx: EvaluationContext, bidx: int, trunc: Truncation
                 ) -> List[Tuple[Dict[tuple, object], object]]:
    """Per coset representative w of basis bidx, `(A_w, q)`: the product
    of its kernels prod_m K_m(w) is e^{2 pi i q_w} sum_e A_w[e] t_B^e,
    with A_w[e] = prod_m a_m(w)[e_m] the products of their root-free
    parts (``EvaluationContext.kernel``) on the exponents that `trunc`
    keeps, and q_w = sum_m q_m(w).  `q` is q_w, exact, or None when q_w
    is an integer, so that the caller applies each coset's root once
    (``ring.times_root``), or not at all."""
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
        out.append((grid, None if integral else q))
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
                     trunc: Truncation) -> Tuple[Dict[tuple, object], int]:
    """``(G, den)``: G = prod L^(-k) over the singular (form, k) pairs,
    L the form's linear part (its constant is zero), on `vars` and
    truncated at `trunc`, as ``{e: numerator}`` over the positive int
    `den`.  Each factor is expanded on ``LinearForm.monomials``, over one
    denominator, in the field of iterated Laurent series in which each
    variable of `vars` dominates the later ones, for k > 0 around the
    first variable t_p of L = q_p t_p + L' as

        L^(-k) = sum_n C(k + n - 1, n) (-L')^n / (q_p t_p)^(k + n),

    every term of degree -k, and for k < 0 as the polynomial L^(-k), and
    the factors are convolved one by one onto 1 in ints
    (``series.convolve``), by first variable; they need a box.  G is
    exact on `trunc`: each partial product keeps every term from which
    one within `trunc` can follow, its degree capped at the total plus the
    k to come, and its exponent of t_u at box_u plus, while expansions
    around t_u are to come, their k and the caps of the later variables,
    the most that their L' carry there."""
    vars = tuple(vars)
    steps = sorted(((min(map(vars.index, form.coeffs)) if k > 0 else None,
                     form, k) for form, k in factors),
                   key=lambda x: (x[0] is not None, x[0] or 0))
    total, box = trunc.total, trunc.box
    caps = list(box or ())
    for p in reversed(range(len(caps))):
        ks = sum(k for q, _, k in steps if q == p)
        if ks:
            caps[p] += ks + sum(caps[p + 1:])
    if caps and min(caps) < 0:
        return {}, 1

    def cap(i: int) -> Truncation:
        # what the product keeps before the singular factors steps[i:]
        later = steps[i:]
        leads = {q for q, _, _ in later}
        return Truncation(total + sum(k for _, _, k in later),
                          box and tuple(c if u in leads else b
                                        for u, (b, c) in enumerate(
                                            zip(box, caps))))

    terms, den = {(0,) * len(vars): 1}, 1
    for i, (p, form, k) in enumerate(steps):
        step = cap(i + 1)
        if p is None:
            # L^m = (D L)^m / D^m, its terms of degree m = -k
            fac = [t for t in form.monomials(vars, step, -k) if t[2] == -k]
            den *= form.den ** -k
        else:
            # 1/q_p = x/a, -L' = -(d L')/d, over a^k (a d)^top
            v = vars[p]
            rest = LinearForm({u: q for u, q in form.coeffs.items()
                               if u != v})
            q = form.coeffs[v]
            a, x = abs(q.numerator), q.denominator * (1 if q > 0 else -1)
            monos = rest.monomials(vars, step, sum(step.box[p + 1:]))
            top = max(n for _, _, n in monos)
            coef = _binomial_series(k, x, -x, a * rest.den, top)
            den *= a ** k * (a * rest.den) ** top
            fac = [(e[:p] + (-k - n,) + e[p + 1:], coef[n] * m, -k)
                   for e, m, n in monos]
        terms = convolve(terms, fac, step)
    return terms, den


def _binomial_series(k: int, first, x, b: int, top: int) -> list:
    """first^k x^n C(k + n - 1, n) b^(top - n) for n = 0..top: over
    b^top, the degree-n coefficients of first^k (1 - x u / b)^(-k) in u,
    the closed form of one factor's expansion."""
    power = 1
    for _ in range(k):
        power = power * first
    coef = []
    for n in range(top + 1):
        coef.append(power * (math.comb(k + n - 1, n) * b ** (top - n)))
        power = power * x
    return coef


def _unit_product(factors: Sequence[Tuple[LinearForm, int]], vars,
                  trunc: Truncation) -> Tuple[Dict[tuple, object], int]:
    """``(G, den)``: G = prod_j (-c_j + L_j)^(-k_j) over the unit (form, k)
    pairs, c_j != 0 and k_j > 0, on `vars` and truncated at `trunc`, as
    ``{e: numerator}`` over the positive int `den`, with no series
    product.

    With 1/c_j = x_j / a_j and L_j = P_j / D_j, P_j an integer form, G is
    prod_j (-x_j / a_j)^(k_j) times F = prod_j (1 - l_j)^(-k_j), where
    l_j = L_j / c_j = s_j P_j / M over M = lcm_j a_j D_j.  One factor is
    its binomial series, sum_n C(k + n - 1, n) l^n.  More factors are
    read from the logarithmic derivative of F: with E = sum_v t_v d/dt_v,
    E log F = sum_j k_j l_j / (1 - l_j), so the degree-n parts obey

        n F_n = sum_{m=1..n} H_m F_{n-m},   H_m = sum_j k_j l_j^m

    (J. C. P. Miller's recurrence for the powers of a series, in the
    form of Knuth, TAOCP vol. 2, 4.7).  The sum is taken per factor by
    Horner's rule, B_j,n = sum_{m=1..n} l_j^m F_{n-m} = l_j (F_{n-1} +
    B_j,n-1), so that no power l_j^m is formed and each degree costs one
    product by each linear form.  In ints, A_n = n! M^n F_n and
    b_j,n = (n - 1)! M^n B_j,n give

        b_j,n = s_j P_j (A_{n-1} + (n - 1) b_j,n-1),   A_n = sum_j k_j b_j,n,

    one pass over the degrees whatever the number of factors.  The box
    of `trunc` holds term by term, as no exponent ever falls."""
    vars = tuple(vars)
    total, box = trunc.total, trunc.box
    if total < 0 or (box and min(box) < 0):
        return {}, 1
    zero = (0,) * len(vars)
    if not factors:
        return {zero: 1}, 1
    recips = [_reciprocal(form.c) for form, _ in factors]
    if len(factors) == 1:
        (form, k), (x, a) = factors[0], recips[0]
        monos = form.monomials(vars, trunc, total)
        top = max(n for _, _, n in monos)
        b = a * form.den
        coef = _binomial_series(k, -x, x, b, top)
        return {e: coef[n] * m for e, m, n in monos}, a ** k * b ** top
    M = math.lcm(*(a * form.den
                   for (form, _), (_, a) in zip(factors, recips)))
    lead, den = 1, 1  # prod_j (-x_j)^k_j over prod_j a_j^k_j
    lines = []  # per factor, k_j and s_j P_j as [(index of t_v, int)]
    for (form, k), (x, a) in zip(factors, recips):
        for _ in range(k):
            lead = lead * -x
        den *= a ** k
        s = x * (M // (a * form.den))
        lines.append((k, [(vars.index(v),
                           s * (q.numerator * (form.den // q.denominator)))
                          for v, q in form.coeffs.items()]))
    # with no box, an entry of a term of degree n - 1 < total is below it
    caps = box or (total,) * len(vars)
    A: List[Dict[tuple, object]] = [{zero: 1}]
    b: List[Dict[tuple, object]] = [{} for _ in factors]  # the b_j,n-1
    for n in range(1, total + 1):
        acc: Dict[tuple, object] = {}
        for j, (k, line) in enumerate(lines):
            inner = dict(A[-1])
            for e, v in b[j].items():
                inner[e] = inner.get(e, 0) + (n - 1) * v
            out: Dict[tuple, object] = {}
            get = out.get
            for u, c in line:
                cap = caps[u]
                for e, v in inner.items():
                    if e[u] < cap:
                        e = e[:u] + (e[u] + 1,) + e[u + 1:]
                        out[e] = get(e, 0) + c * v
            b[j] = out
            for e, v in out.items():
                acc[e] = acc.get(e, 0) + k * v
        A.append({e: v for e, v in acc.items() if v})
    top = max(n for n, part in enumerate(A) if part)
    # F_n = A_n / (n! M^n) over top! M^top: A_n times scales[top - n]
    scales = [lead]
    for n in range(top, 0, -1):
        scales.append(scales[-1] * (n * M))
    return ({e: v * scales[top - n] for n in range(top + 1)
             for e, v in A[n].items()},
            den * math.factorial(top) * M ** top)


@dataclass
class UnitParts:
    """A unit product before its lift: ``series = {e: [(m, v, x)]}`` over
    the positive int `den`, so that the coefficient of t^e is the sum of
    x v / (den (2 pi i)^m), as ``ring.unit_lift`` reads them."""

    series: Dict[tuple, list]
    den: int = 1


def unit_parts(ring, factors: Sequence[Tuple[LinearForm, int]], vars,
               trunc: Truncation, exponent: Optional[LinearForm] = None,
               scale=1, times: Optional[Dict[tuple, object]] = None
               ) -> UnitParts:
    """The rational `scale` times prod (a + L)^(-k) over the (form, k)
    pairs, a = -2 pi i c the form's constant (nonzero) and L its linear
    part, times e^exponent when an exponent form is given, or else times
    the series term map `times`, which is then required, on `vars` and
    truncated at `trunc`, as the integer parts of its one lift
    (``lift_units``): the unit factors 1/den_g of a summand of a full
    series times its coset sum, with its weight, and the whole numerator
    of a polytope vertex, its exponential and its non-singular edge
    denominators with its weight.

    Since (-2 pi i c + L(t))^(-k) = (2 pi i)^(-k) (-c + L(t / 2 pi i))^(-k),
    the coefficient of t^e is (2 pi i)^(-(K + |e|)) G[e], K the sum of the
    k, where G = prod (-c + L)^(-k) is a series over Q (over Q(i) when a
    constant is a Gaussian rational), built in ints from its logarithmic
    derivative, with no product of one factor's series by another's
    (``_unit_product``).  The exponential e^(-2 pi i c_E) e^(L_E) of an
    exponent form is a root times sum_n L_E^n / n!, a series over Q too:
    it is convolved last, into the terms of each degree n that came from
    the unit factors on their own.  Each term of G meets each term x of
    `times` (or the exponential's root), as one part (m, v, x) of
    the key it lands on: its int numerator v, the scale's numerator
    folded in, over `den`, the scale's denominator folded in, and the
    power m = K + n of 2 pi i that its degree n sets."""
    vars = tuple(vars)
    total, box = trunc.total, trunc.box
    if any(form.singular for form, _ in factors):
        raise NonDivisible("cannot invert a linear form with zero "
                           "constant term")
    terms, den = _unit_product(factors, vars, trunc)
    K = sum(k for _, k in factors)
    scale = Fraction(scale)
    den *= scale.denominator
    if scale.numerator != 1:
        terms = {e: v * scale.numerator for e, v in terms.items()}
    if exponent is None:
        # each term of G meets each term of `times`
        units = [(e, sum(e), v) for e, v in terms.items()]
        series = {}
        for eb, x in times.items():
            nb = sum(eb)
            for eu, n, v in units:
                if nb + n > total:
                    continue
                e = tuple(map(add, eb, eu))
                if box is None or all(map(le, e, box)):
                    series.setdefault(e, []).append((K + n, v, x))
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
                series.setdefault(e, []).append((K + n, v, root))
    return UnitParts(series, den)


def lift_units(ring, vars, trunc: Truncation, parts: Sequence[UnitParts]
               ) -> TruncatedSeries:
    """The sum of the unit products `parts` (``unit_parts``), on `vars`
    and truncated at `trunc`, in one ``ring.unit_lift``: the parts are
    put over one denominator L, the lcm of their den, each v times
    L // den.  So each coefficient of the sum is built once from its int
    numerators, the x they meet and their powers of 2 pi i, with no scalar
    made for any one part, and numeric mode rounds once per coefficient."""
    L = math.lcm(*(p.den for p in parts))
    series: Dict[tuple, list] = {}
    for p in parts:
        s = L // p.den
        for e, terms in p.series.items():
            series.setdefault(e, []).extend(
                (m, v * s, x) for m, v, x in terms)
    return TruncatedSeries(ring, vars, trunc, ring.unit_lift(series, L))


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
    over den (the unit factors' part, ``_unit_product``, convolved with
    the singular factors' Laurent part, ``_unit_numerators``), as
    F[e] = +-(2 pi i)^(-m) G[e] / den with m = |k| - |k_B - e|, with no
    scalar built for it: per coset and per m the sum of G[e] *
    A_w[k_B - e] is one integer combination of the grid values, lifted
    once, in one ``ring.unit_lift`` per exponent for every coset; each
    coset's one root of unity is applied last, by ``ring.times_root``,
    which in the exact ring moves exponents.  The grids are built once
    for all the exponents, the unit factors' part once per set of their
    k_g.  An entry may be -1 (``_check_holomorphy``).
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
    products = []  # (target index, [(k_B - e, m, G[e])], den, sign)
    for units, group in reads.items():
        # the unit factors' part, once, on every exponent that a read meets
        U, uden = _unit_product(
            [(_dead_unit(ctx, s.bidx, g, form), kg)
             for (g, form), kg in zip(s.unit_factors, units)], vars,
            _span(tuple(map(sub, box, e)) for _, box, part, _ in group
                  for e in (part[0] if part else [(0,) * len(vars)])))
        for i, box, part, sign in group:
            G, den = U, uden
            if part:
                G = convolve(U, [(e, c, sum(e)) for e, c in part[0].items()],
                             Truncation(sum(box), box))
                den *= part[1]
            # G[e] with the grid exponent k_B - e that it meets and its
            # power m = |k| - |k_B - e| of 2 pi i
            top, pairs = sum(targets[i]), []
            for e, c in G.items():
                g = tuple(map(sub, box, e))
                if min(g) >= 0:
                    pairs.append((g, top - sum(g), c))
            if pairs:
                products.append((i, pairs, den, sign))
    if not products:
        return out
    grids = _coset_grids(ctx, s.bidx,
                         _span(e for _, pairs, *_ in products
                               for e, _, _ in pairs))
    for i, pairs, den, sign in products:
        series = {}
        for w, (grid, _) in enumerate(grids):
            parts = [(m, c, grid[e]) for e, m, c in pairs if e in grid]
            if parts:
                series[w] = parts
        lifted = ring.unit_lift(series, den)
        total = ring.zero()
        for w, (_, q) in enumerate(grids):
            acc = lifted.get(w)
            if acc is not None:
                total = total + (acc if q is None
                                 else ring.times_root(acc, q))
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
