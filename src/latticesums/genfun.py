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
computed exactly from the functional constants.  The form is singular
exactly when that constant is zero, and forms are merged by their
normalised rational coefficients.  Every unit inverse, a live factor
1/den_g, a factor collapsed to its Taylor coefficient or a non-singular
edge denominator of the polytope route, comes from one integer product,
``_unit_numerators``, and so does the exponential e^{t* . p} of a
polytope vertex (``unit_product``): the constants are 2 pi i times exact
rationals, so the product of all the inverses of a summand (or of a
vertex, with its exponential) is a root of unity times a series over Q
(over Q(i) for Gaussian constants) in t / (2 pi i), multiplied in
integers.  Each coefficient is then built once from its int numerators
(``ring.unit_lift``): (2 pi i)^(-n) is a power of pi, a power of 2 in the
one denominator and a power of i that turns the root, and numeric mode
rounds there for the first time, once per term.  A non-singular summand
reads the integer series itself: per coset and degree its terms meet the
kernel grid in one integer combination, lifted once.  Singular factors
are carried as rational forms whose singularities cancel across bases.
Numeric mode takes the same decisions from the same exact data, and
keeps y exact too (a float y at its binary value), so that only values
are rounded.  Taylor coefficients of the holomorphic
total give the special values S via the weight prefactor
prod_f -(2 pi i)^{k_f} / k_f!.

Every summand reads its kernels one grid per coset
(``_coset_grids``): the products prod_m a_m(w)[e_m] of the kernels'
root-free parts, with the coset's one root e^{2 pi i q_w} kept apart, to
be applied once, or not at all when q_w is an integer.

One summand builder, ``summand_rational_form``, writes a summand out as
a rational form for every evaluator.  Every factor t_g / den_g and every
singular t_g carries the monomial t_g, so the rest of the summand (its
coset sum of kernel products, with its weight, and its unit inverses) is
built below the requested order by one degree for each t_g, and
prod t_g is applied once, as an exponent shift, with no series product.
Two evaluation strategies use it:

* ``generating_function`` assembles the full truncated series, every
  variable live (fine for small arrangements and used by all
  cross-checks; the hierarchy check starts from the same forms);
* ``coefficient`` targets a single exponent vector.  Unit factors are
  collapsed to the closed form -(a_g + U_g)^{-k_g} immediately, so each
  summand only keeps its basis variables and the variables of singular
  denominators alive; summands are then grouped by the connected
  components of their shared singular hyperplanes and resolved per
  component.  A summand with no singular denominator shares no
  hyperplane and is a component of its own.  Nothing is divided there,
  so no truncated series is built: its coefficient is read at k on the
  box e <= k_B of its basis weights, from the unit factors' product and
  each coset's grid, the coset's root applied last.  Only components
  with a singular denominator build series, to the order that their
  divisions need and on the box of their target, through the builder
  with the component's live variables: the coset grids times their roots
  are summed on the rank-many basis variables in one ring product call
  (``ring.mul_terms``, each root a one-term series; in integers in exact
  mode) and extended to the live ones once, then
  multiplied by the one unit product of the summand's live and collapsed
  unit factors, inside that product's lift.

A singular component is built only on the box B of its target: every
exponent e_v with v live and not the pivot (``LinearForm.pivot``) of a
singular denominator is capped at k_v, and the total degree at |k| plus
the divisions.  Only the coefficient of t^k is read, and B holds k.  B is
a lower set, so every numerator, every product by a missing denominator
and the sum are exact on it.  The division's step
Q[f] = (s[f + e_p] - sum_{v != p} q_v Q[f + e_p - e_v]) / q_p (pivot p)
moves information only from lower to higher exponents of the non-pivot
variables, at the same total degree, and a pivot is capped only by the
total degree, so B is closed under the step and under f -> f + e_p: the
division on B is the total-degree division restricted to B, and so is
the final read.  Each remainder test still sees every kept term, and so
every term that feeds t^k, but no term outside the box; the numeric
residual tolerance scales with the largest kept term.
``generating_function``, the polytope check and the hierarchy check
build full total-degree series.

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
                      arrangement_data, choose_phi, frac_part, is_generic,
                      on_excluded_hyperplanes)
from .scalar import ExactRing, NumericRing
from .series import (LinearForm, RationalForm, TruncatedSeries, Truncation,
                     convolve, division_count, sum_rational_forms)


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

    What the directions fix, the bases, phi and the pairings <g, f^B>, is
    read from the arrangement table (``lattice.arrangement_data``), shared
    by every context over the same directions; a context adds the
    constants, y and the scalars: the denominators den_g of each basis
    (``geometry``), the fractional parts (``lattice.frac_part``) and the
    kernels, computed once per ring.  A caller's phi must be generic
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
        self._set_arrangement(arr)
        if mode == "exact":
            self.N = cyclotomic_order(arr, self.y)
            self.ring = ExactRing(self.N)
        else:
            self.N = None
            self.ring = NumericRing(precision)
        self._bases: Dict[tuple, list] = {}
        self._parts: Dict[tuple, dict] = {}

    def _set_arrangement(self, arr: Arrangement) -> None:
        """The fields that depend on the arrangement, and only those."""
        self.arr = arr
        self.data = arrangement_data(arr)
        self.vars = tuple(f"t{i}" for i in range(arr.size))
        self._constants = [f.exact_constant() for f in arr.functionals]

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
        denominator is singular: its constant sum_x lin[x] c_x is
        computed from the exact constants, never from a rounded value."""
        c = sum((q * self._constants[x] for x, q in lin.items()),
                Fraction(0))
        if isinstance(c, GaussianRational) and c.im == 0:
            c = c.re
        return LinearForm({self.vars[x]: q for x, q in lin.items()}, c)

    def yhat(self, bidx: int, w: Tuple[int, ...], member: int):
        """``lattice.frac_part`` of (y, w) for `member` of basis bidx, on
        the side of phi."""
        return frac_part(self.y, w, self.data.bases[bidx], member, self.phi)

    def kernel(self, bidx: int, w: Tuple[int, ...], member: int,
               order: int) -> Tuple[Dict[int, object], object]:
        """`(a, q)`: the kernel of `member` at its fractional part for
        (bidx, w), through degree `order`, is e^{2 pi i q} sum_n a[n] t^n,
        `a` its nonzero root-free parts (``kernel.nonzero_parts``), cached
        by the kernel's parameters (distinct cosets and bases often share
        them) and their B_k(lam) / k! by b and the order."""
        params = KernelParams.make(self.constant(member),
                                   self.yhat(bidx, w, member))
        q = -params.b * params.y
        parts = self._parts.get((params, order))
        if parts is None:
            key = (None if params.integral else params.b, order)
            base = self._bases.get(key)
            if base is None:
                base = self._bases[key] = kernel_base(self.ring, params,
                                                      order)
            parts = self._parts[params, order] = nonzero_parts(
                self.ring, kernel_parts(self.ring, params, order, base), q)
        return parts, q

    # -- basis geometry ------------------------------------------------------

    def geometry(self, bidx: int) -> Dict[int, LinearForm]:
        """``{g: den_g}`` for each g outside basis bidx, with
        den_g = t_g - 2 pi i c_g - sum_f (t_f - 2 pi i c_f) <g, f^B>, the
        pairings <g, f^B> read from the arrangement table."""
        return {g: self.combination(relative_form(g, pairs))
                for g, pairs in self.data.pairings[bidx].items()}


def relative_form(g: int, pairs: Dict[int, Fraction]) -> Dict[int, Fraction]:
    """t_g - sum_f <g, f^B> t_f, as coefficients on the functionals, from
    g's pairings {f: <g, f^B>} with the duals of a basis B."""
    lin = {g: Fraction(1)}
    lin.update((f, -c) for f, c in pairs.items() if c)
    return lin


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


def summand_rational_form(ctx: EvaluationContext, s: Summand,
                          trunc: Truncation,
                          live_vars: Optional[Tuple[str, ...]] = None,
                          k: Optional[WeightVector] = None) -> RationalForm:
    """The summand as a rational form in `live_vars` (every variable when
    None), its numerator truncated at `trunc`:

        weight * sum_w prod_m K_m(w) * prod_dead -(a_g + U_g)^(-k_g)
               * prod_live t_g / den_g * prod_singular t_g

    over the singular denominators.  A unit factor whose t_g is not live
    is collapsed to its Taylor coefficient at k_g,
    [t_g^{k_g}] t_g / den_g = -(a_g + U_g)^(-k_g) (``_dead_unit``), a
    function of the basis variables alone; `k` is read only for those.

    Every t_g is a monomial, so everything else is built below `trunc` by
    one degree for each of them, and below its box, if it has one, by the
    exponents of the monomial: the weight times the coset sum of kernel
    products, read from the root-free grids of ``_coset_grids``, each
    times its coset's root as a one-term series, and added with the
    weight in one ``ring.mul_terms`` (one coset with no root and weight 1
    is its grid as it is), extended once to `live_vars`, times one exact
    ``unit_product`` of every unit factor, dead ones as (a_g + U_g, k_g)
    and live ones as (den_g, 1), which takes the coset sum as its
    `times`, so that the product is made in the unit product's one lift,
    with no series product.  The monomial prod t_g is applied last, as
    one exponent shift into `trunc`.  The numerator is zero when the t_g
    leave nothing below `trunc`, or when a dead factor is read at
    k_g = 0.

    A box is a lower set, so each of those products and the shift is
    exact on it: the numerator is the total-degree one restricted to the
    box.  ``coefficient`` builds a singular component on the box that caps
    every exponent but a pivot's at its target k_v (the module docstring),
    on which ``sum_rational_forms`` divides exactly too; the remainder
    tests then see every kept term, and so every term that feeds t^k, but
    no term outside the box, and the numeric residual tolerance scales
    with the largest kept term."""
    ring = ctx.ring
    live_vars = ctx.vars if live_vars is None else live_vars
    basis_vars = tuple(ctx.vars[m] for m in ctx.arr.bases[s.bidx].members)
    units, monomial = [], [ctx.vars[g] for g, _ in s.degenerate_factors]
    weight = s.weight
    for g, form in s.unit_factors:
        if ctx.vars[g] in live_vars:
            units.append((form, 1))
            monomial.append(ctx.vars[g])
        else:
            units.append((_dead_unit(ctx, g, form), k.weights[g]))
            weight = -weight
    top, box = trunc.total - len(monomial), trunc.box
    if box is not None:
        box = tuple(b - (v in monomial) for v, b in zip(live_vars, box))
    denoms = s.denominators
    if top < 0 or (box is not None and min(box) < 0) \
            or any(kg == 0 for _, kg in units):
        # nothing below `trunc`, or [t_g^0] (t_g * unit) = 0
        return RationalForm(TruncatedSeries(ring, live_vars, trunc), denoms)
    low = Truncation(top, box)
    on_basis = low if box is None else Truncation(
        top, tuple(box[live_vars.index(v)] for v in basis_vars))
    zero, one = (0,) * len(basis_vars), ring.one()
    num = TruncatedSeries(ring, basis_vars, on_basis, ring.mul_terms(
        [({zero: one if root is None else root}, grid)
         for grid, root in _coset_grids(ctx, s.bidx, on_basis)],
        on_basis, weight)).extend(live_vars, low)
    if units:
        num = unit_product(ring, units, live_vars, low, times=num.terms)
    return RationalForm(num.shifted(monomial, trunc), denoms)


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
    `order`, at any y, excluded or not.  The summands are built at the
    working order order + divisions: ``sum_rational_forms`` divides each
    distinct singular den_g out once, and each exact division loses one
    degree."""
    ctx = _context(arr, y, mode, precision, phi, ctx)
    summands = build_summands(ctx)
    work = order + division_count(s.denominators for s in summands)
    trunc = Truncation(work)
    total = sum_rational_forms([summand_rational_form(ctx, s, trunc)
                                for s in summands])
    return total.with_truncation(Truncation(order))


# ---------------------------------------------------------------------------
# single-coefficient extraction
# ---------------------------------------------------------------------------


def _component_partition(summands: List[Summand]):
    """Group summands by connected components of shared singular forms."""
    keys = [{cf.key for cf in s.denominators} for s in summands]
    parent = list(range(len(summands)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    by_form: Dict[tuple, int] = {}
    for i, ks in enumerate(keys):
        for k in ks:
            if k in by_form:
                ra, rb = find(i), find(by_form[k])
                if ra != rb:
                    parent[ra] = rb
            else:
                by_form[k] = i
    groups: Dict[int, List[int]] = {}
    for i in range(len(summands)):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _dead_unit(ctx: EvaluationContext, g: int, form: LinearForm
               ) -> LinearForm:
    """c = a_g + U_g(t_B) for den_g = t_g - c, so that the target Taylor
    coefficient [t_g^{k_g}] t_g / den_g is -c^{-k_g}."""
    return LinearForm({v: -q for v, q in form.coeffs.items()
                       if v != ctx.vars[g]}, -form.c)


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
    the form's constant (nonzero) and L its linear part, on `vars` and
    truncated at `trunc`, as ``{e: numerator}`` over the positive int
    `den`; K is the sum of the k.  The numerators are ints, or
    GaussianRationals with int parts when a constant is Gaussian.

    Each factor is expanded from (-c)^(-k) sum_n C(k + n - 1, n) (L/c)^n
    on ``LinearForm.monomials``, over one denominator, and the factors are
    convolved in ints (``series.convolve``)."""
    total = trunc.total
    terms: Dict[tuple, object] = {(0,) * len(vars): 1}
    den, K = 1, 0
    for form, k in factors:
        if form.singular:
            raise NonDivisible("cannot invert a linear form with zero "
                               "constant term")
        wnum, wden = _reciprocal(form.c)
        monos = form.monomials(vars, trunc, total)
        top = max(n for _, _, n in monos)
        # the degree-n coefficient (-w)^k C(k + n - 1, n) w^n / D^n,
        # w = 1/c, over the factor's denominator wden^k (wden D)^top
        base = wden * form.den
        power = (-1) ** k
        for _ in range(k):
            power = power * wnum
        coef = []
        for n in range(top + 1):
            coef.append(power * (math.comb(k + n - 1, n)
                                 * base ** (top - n)))
            power = power * wnum
        den *= wden ** k * base ** top
        K += k
        terms = convolve(terms, [(e, coef[n] * m, n) for e, m, n in monos],
                         trunc)
    return terms, den, K


def unit_product(ring, factors: Sequence[Tuple[LinearForm, int]], vars,
                 trunc: Truncation, exponent: Optional[LinearForm] = None,
                 scale=1, times: Optional[Dict[tuple, object]] = None
                 ) -> TruncatedSeries:
    """The rational `scale` times prod (a + L)^(-k) over the (form, k)
    pairs, a = -2 pi i c the form's constant (nonzero) and L its linear
    part, times e^exponent when an exponent form is given, or else times
    the series term map `times` when one is given, on `vars` and
    truncated at `trunc`: every unit inverse that the evaluators expand,
    the live and collapsed unit factors of a summand times its coset sum,
    and the whole numerator of a polytope vertex, its exponential and its
    non-singular edge denominators with its weight.

    Since (-2 pi i c + L(t))^(-k) = (2 pi i)^(-k) (-c + L(t / 2 pi i))^(-k),
    the coefficient of t^e is (2 pi i)^(-(K + |e|)) G[e], K the sum of the
    k, where G = prod (-c + L)^(-k) is a series over Q (over Q(i) when a
    constant is a Gaussian rational), convolved in ints
    (``_unit_numerators``).  The exponential e^(-2 pi i c_E) e^(L_E) of an
    exponent form is a root times sum_n L_E^n / n!, a series over Q too:
    it is convolved last, into the terms of each degree n that came from
    the unit factors on their own.  Each term of G meets each term x of
    `times` (the root, or 1, when there is none).  Every coefficient is
    then built once from its int numerators, the x it meets and the power
    (2 pi i)^(-(K + n)) of each of its terms, one ``ring.unit_lift`` for
    the whole series: in exact mode over one shared denominator that holds
    den, the powers of 2 of (2 pi i)^(-(K + n)), the denominators of the x
    and that of `scale` (its numerator is folded into the numerators),
    each term of x turned by its power of i and set at its power of pi,
    cancelled once; no product of two scalars is taken.  Numeric mode
    rounds only there, once per term."""
    vars = tuple(vars)
    total, box = trunc.total, trunc.box
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
    return TruncatedSeries(ring, vars, trunc,
                           ring.unit_lift(series, den, K, scale))


def _unit_summand_value(ctx: EvaluationContext, s: Summand,
                        k: WeightVector):
    """[t^k] of a summand with no singular denominator, with no series
    beyond the box e <= k_B of its basis weights:

        weight * sum_w e^{2 pi i q_w} sum_e F[e] * A_w[k_B - e],

    F = prod_g -(a_g + U_g)^{-k_g} over the unit factors and A_w the
    root-free grid of coset w (``_coset_grids``), each kernel only to
    degree k_m.  F is read from its int series on the box, G over den
    (``_unit_numerators``), as F[e] = +-(2 pi i)^(-(K + |e|)) G[e] / den,
    with no scalar built for it: per coset and per degree n the sum over
    |e| = n of G[e] * A_w[k_B - e] is one integer combination of the grid
    values, lifted once, in one ``ring.unit_lift`` for every coset; each
    coset's one root of unity is applied last."""
    ring = ctx.ring
    members = ctx.arr.bases[s.bidx].members
    vars = tuple(ctx.vars[m] for m in members)
    box = tuple(k.weights[m] for m in members)
    trunc = Truncation(sum(box), box)
    if any(k.weights[g] == 0 for g, _ in s.unit_factors):
        return ring.zero()  # [t_g^0] (t_g * unit) = 0
    G, den, K = _unit_numerators([(_dead_unit(ctx, g, form), k.weights[g])
                                  for g, form in s.unit_factors], vars, trunc)
    # G[e] with the grid exponent k_B - e that it meets
    pairs = [(tuple(map(sub, box, e)), sum(e), v) for e, v in G.items()]
    grids = _coset_grids(ctx, s.bidx, trunc)
    series = {}
    for w, (grid, _) in enumerate(grids):
        parts = [(n, v, grid[e]) for e, n, v in pairs if e in grid]
        if parts:
            series[w] = parts
    lifted = ring.unit_lift(series, den, K)
    total = ring.zero()
    for w, (_, root) in enumerate(grids):
        acc = lifted.get(w)
        if acc is not None:
            total = total + (acc if root is None else acc * root)
    sign = -1 if len(s.unit_factors) % 2 else 1
    return ring.scale(total, sign * s.weight)


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
    summands = build_summands(ctx)
    total = ctx.ring.zero()
    for idxs in _component_partition(summands):
        total = total + _component_value(ctx, [summands[i] for i in idxs], k)
    return total


def _component_value(ctx: EvaluationContext, summands: List[Summand],
                     k: WeightVector):
    if not summands[0].degenerate_factors:
        # a summand with no singular denominator shares no hyperplane, so
        # it is its component: nothing to divide, read its coefficient
        (s,) = summands
        return _unit_summand_value(ctx, s, k)
    live_vars, target, trunc = _component_truncation(ctx, summands, k)
    forms = [summand_rational_form(ctx, s, trunc, live_vars, k)
             for s in summands]
    forms = [form for form in forms if not form.numerator.is_zero()]
    if not forms:
        return ctx.ring.zero()
    total = sum_rational_forms(forms)
    return total.coefficient(target)


def _component_truncation(ctx: EvaluationContext, summands: List[Summand],
                          k: WeightVector
                          ) -> Tuple[Tuple[str, ...], tuple, Truncation]:
    """`(live_vars, target, trunc)` of a component with singular
    denominators: its live variables, the exponent k on them and the
    truncation of its forms, total degree |target| + divisions with every
    exponent capped at its target but a pivot's (module docstring)."""
    live = set()
    for s in summands:
        for m in ctx.arr.bases[s.bidx].members:
            live.add(ctx.vars[m])
        for g, cf in s.degenerate_factors:
            live.add(ctx.vars[g])
            for v in cf.coeffs:
                live.add(v)
    live_vars = tuple(sorted(live, key=lambda v: ctx.vars.index(v)))
    target = tuple(k.weights[ctx.vars.index(v)] for v in live_vars)
    denominators = [s.denominators for s in summands]
    order = sum(target) + division_count(denominators)
    pivots = {d.pivot for ds in denominators for d in ds}
    return live_vars, target, Truncation(order, tuple(
        order if v in pivots else kv for v, kv in zip(live_vars, target)))


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
