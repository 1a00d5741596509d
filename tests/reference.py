"""Independent references that the tests compare the production code with.

Nothing in ``latticesums`` calls these.  They recompute what the
evaluators take from shortcuts:

* the polytopes P(m; y) of the polytope reconstruction as explicit
  H-representations, their vertices by brute-force H-to-V conversion,
  simplicity by counting incident hyperplanes, the translates by scanning
  a loose box, and the vertex formula for int_P exp(a . x) dx
  (Brion-Lawrence) in floating point;
* the kernel's closed-form coefficients C(k, y; b) (Bernoulli polynomials
  for integral b) and their moment integrals against e^{-2 pi i m x};
* the inverse of a unit linear form by the generic series inverse, the
  powers and the exponential of a linear form from their closed forms,
  and
  one coset's term of a basis's summand built at full order, one series
  product per kernel, per t_g and per unit inverse;
* the ring's series product, one scalar product per term pair, and the
  scalar product by the general loop over term pairs;
* the kernel's root-free parts from the Fraction formula in the exact
  ring and from the rounded mpc formula in the numeric ring, the paths
  that the integer numerators and mantissas of ``kernel.kernel_parts``
  replaced;
* the product of unit and singular factors by convolving their
  expansions one at a time, the path that the unit factors' product from
  its logarithmic derivative replaced;
* the unit product lifted into the ring term by term, a non-singular
  summand's coefficient as one ring product per term of its unit
  product, and the sum of rational forms with one series product per
  missing representative: the paths that the integer lifts and sums of
  the evaluators replaced;
* the lattice data that the evaluator reads over integers, in Fraction
  arithmetic: the relative forms t_g - sum_f <g, f^B> t_f and the den_g
  and U_g built from them, and the fractional part by its definition;
* the constant and single-variable series those products start from;
* small exact helpers that only the tests use: a matrix product, lattice
  membership, the powers of pi, an exact scalar re-expressed in a larger
  cyclotomic field, a functional's value at a lattice point, an
  arrangement with its functionals reordered, the character sums over a
  basis's coset representatives, a series builder with one coefficient
  perturbed and a summand's rational form as the hierarchy check builds
  it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple, Union

from latticesums import intlinalg
from latticesums.cyclotomic import CyclotomicField
from latticesums.errors import NotSimple
from latticesums.genfun import (EvaluationContext, _coset_grids, _dead_unit,
                                _reciprocal, _unit_product, lift_units,
                                summand_parts, unit_parts)
from latticesums.kernel import (KernelParams, _apostol_numbers,
                                bernoulli_numbers, kernel_series)
from latticesums.lattice import (Arrangement, Basis, Functional,
                                 GaussianRational, GenericDirection,
                                 is_generic)
from latticesums.polytope import (Decomposition, Label, VertexWitness,
                                  adjacency, vertices)
from latticesums.scalar import ExactScalar
from latticesums.series import (LinearForm, RationalForm, TruncatedSeries,
                                Truncation, _divisors, convolve, divide_exact)

# ---------------------------------------------------------------------------
# polytopes
# ---------------------------------------------------------------------------


@dataclass
class HalfSpace:
    label: Label
    u: Tuple[Fraction, ...]
    v: Fraction


@dataclass
class HPolytope:
    """H-representation of P(m; y) in the coordinates of L0."""

    m: Tuple[int, ...]
    coords: Tuple[int, ...]  # functional indices of L0, in order
    halfspaces: List[HalfSpace]

    @property
    def dim(self) -> int:
        return len(self.coords)


def build_polytope(dec: Decomposition, m: Sequence[int],
                   y: Sequence[Fraction]) -> HPolytope:
    arr, b0, l0 = dec.arr, dec.b0, dec.l0
    y = [Fraction(v) for v in y]
    halfspaces = []
    n = len(l0)
    for f in range(arr.size):
        for a in (0, 1):
            if f in b0.members:
                dual = b0.dual(f)
                base = [sum(Fraction(x) * d for x, d in
                            zip(arr.functionals[g].direction, dual))
                        for g in l0]
                ym = sum((yv + mv) * d for yv, mv, d in zip(y, m, dual))
                if a == 1:
                    u = tuple(base)
                    v = ym - 1  # <y+m-f, f^B0> since <f, f^B0> = 1
                else:
                    u = tuple(-c for c in base)
                    v = -ym
            else:
                pos = l0.index(f)
                u = tuple(Fraction(1 if i == pos else 0) * (-1) ** a
                          for i in range(n))
                v = Fraction(-a)
            halfspaces.append(HalfSpace((f, a), u, v))
    return HPolytope(tuple(int(x) for x in m), l0, halfspaces)


def box_translates(dec: Decomposition, y: Sequence[Fraction]
                   ) -> List[Tuple[Tuple[int, ...], List[VertexWitness]]]:
    """(m, vertices of P(m; y)) for every nonempty P(m; y), sorted by m,
    from a scan of a box that holds every window: each point of the box is
    tested against the windows of <y + m, f^B0>, f in B0, and kept when it
    carries a vertex."""
    arr, b0, l0 = dec.arr, dec.b0, dec.l0
    y = [Fraction(v) for v in y]
    windows = {}
    for f in b0.members:
        lo = Fraction(0)
        hi = Fraction(0)
        for g in l0:
            c = dec.dual_pair(g, f)
            if c > 0:
                hi += c
            else:
                lo += c
        ydot = sum(yv * d for yv, d in zip(y, b0.dual(f)))
        # need lo <= <y+m, f^B0> and <y+m, f^B0> - 1 <= hi
        windows[f] = (lo - ydot, hi + 1 - ydot)
    r = arr.rank
    bound = 0
    for f in b0.members:
        amax = max(abs(windows[f][0]), abs(windows[f][1]))
        fdir = arr.functionals[f].direction
        bound = max(bound, int(math.ceil(float(
            amax * max(abs(x) for x in fdir) * r))) + 1)
    out = []
    for m in itertools.product(range(-bound, bound + 1), repeat=r):
        ok = True
        for f in b0.members:
            s = sum(Fraction(mv) * d for mv, d in zip(m, b0.dual(f)))
            lo, hi = windows[f]
            if not (lo <= s <= hi):
                ok = False
                break
        if not ok:
            continue
        verts = vertices(dec, m, y)
        if verts:
            out.append((tuple(m), verts))
    return sorted(out, key=lambda item: item[0])


def incident_hyperplane_count(poly: HPolytope, point: Sequence[Fraction]
                              ) -> int:
    count = 0
    for hs in poly.halfspaces:
        val = sum(u * p for u, p in zip(hs.u, point))
        if val == hs.v:
            count += 1
    return count


def is_simple(poly: HPolytope, verts: List[VertexWitness]) -> bool:
    """Every vertex on exactly dim incident hyperplanes."""
    n = poly.dim
    return all(incident_hyperplane_count(poly, w.point) == n for w in verts)


def brute_force_vertices(poly: HPolytope) -> List[Tuple[Fraction, ...]]:
    """Direct H-to-V conversion: solve every n-subset of boundary
    hyperplanes and keep feasible intersection points."""
    n = poly.dim
    pts = {}
    for combo in itertools.combinations(poly.halfspaces, n):
        rows = [list(hs.u) for hs in combo]
        if intlinalg.det(rows) == 0:
            continue
        inv = intlinalg.mat_inverse(rows)
        rhs = [hs.v for hs in combo]
        p = tuple(sum(inv[i][j] * rhs[j] for j in range(n)) for i in range(n))
        feasible = all(
            sum(u * x for u, x in zip(hs.u, p)) >= hs.v
            for hs in poly.halfspaces)
        if feasible:
            pts[p] = True
    return sorted(pts)


def witness_matrix(dec: Decomposition, w: VertexWitness):
    """The matrix U whose columns are the hyperplane normals u(g, a_g) for
    g outside the witness basis, in L0 coordinates."""
    arr, b0, l0 = dec.arr, dec.b0, dec.l0
    outside = [g for g in range(arr.size) if g not in w.basis_members]
    cols = []
    for g in outside:
        a = w.sides[g]
        if g in b0.members:
            col = [Fraction((-1) ** (1 - a)) * dec.dual_pair(h, g)
                   for h in l0]
        else:
            pos = l0.index(g)
            col = [Fraction((-1) ** a if i == pos else 0)
                   for i in range(len(l0))]
        cols.append(col)
    return outside, [[cols[j][i] for j in range(len(cols))]
                     for i in range(len(l0))]


def exp_integral_simple(verts: List[VertexWitness], a_vec: Sequence,
                        ctx) -> object:
    """Numeric vertex formula for int_P exp(a . x) dx over a simple polytope.

    a_vec is a vector of numeric scalars; raises ZeroDivisionError when an
    edge direction annihilates it."""
    if not verts:
        return ctx.mpc(0)
    n = len(verts[0].point)
    if n == 0:
        return ctx.mpc(1)
    adj = adjacency(verts)
    if any(len(nb) != n for nb in adj):
        raise NotSimple("vertex adjacency degree differs from the dimension")
    total = ctx.mpc(0)
    for i, w in enumerate(verts):
        edges = [tuple(pk - pj for pk, pj in zip(w.point, verts[j].point))
                 for j in adj[i]]
        detv = intlinalg.det([[e[t] for e in edges] for t in range(n)])
        expo = ctx.mpc(0)
        for av, pv in zip(a_vec, w.point):
            expo += ctx.mpc(av) * ctx.mpf(pv.numerator) / ctx.mpf(pv.denominator)
        denom = ctx.mpc(1)
        for e in edges:
            d = ctx.mpc(0)
            for av, ev in zip(a_vec, e):
                d += ctx.mpc(av) * ctx.mpf(ev.numerator) / ctx.mpf(ev.denominator)
            if d == 0:
                raise ZeroDivisionError("edge direction annihilates the "
                                        "exponent vector")
            denom *= d
        total += abs(ctx.mpf(detv.numerator) / ctx.mpf(detv.denominator)) \
            * ctx.exp(expo) / denom
    return total


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def bernoulli_poly_coeffs(k: int) -> tuple:
    """Coefficients (in increasing powers of y) of the k-th Bernoulli polynomial."""
    bn = bernoulli_numbers(k)
    return tuple(math.comb(k, j) * bn[k - j] for j in range(k + 1))


def bernoulli_poly(k: int, y) -> Fraction:
    acc = Fraction(0)
    yp = Fraction(1)
    for c in bernoulli_poly_coeffs(k):
        acc += c * yp
        yp *= y
    return acc


def kernel_coeff(ring, k: int, params: KernelParams):
    """C(k, y; b): k! times the k-th Taylor coefficient."""
    if params.integral and ring.exact:
        pref = ring.root_of_unity(-params.b * Fraction(params.y))
        return pref * ring.from_fraction(bernoulli_poly(k, Fraction(params.y)))
    s = kernel_series(ring, params, k)
    fact = ring.from_fraction(Fraction(math.factorial(k)))
    return s.coefficient((k,)) * fact


def kernel_moment(k: int, m: int, b) -> Union[Fraction, complex]:
    """The four-case value of -(2 pi i)^k/k! * integral_0^1 C(k,x;b) e^{-2 pi i m x} dx."""
    if isinstance(b, Fraction) or isinstance(b, int):
        shifted = Fraction(m) + Fraction(b)
    else:
        shifted = m + complex(b)
    zero = shifted == 0
    if k == 0:
        return Fraction(-1) if zero else Fraction(0)
    if zero:
        return Fraction(0)
    return 1 / shifted**k


def kernel_coeff_poly(ring, k: int, params_b: Fraction):
    """C(k, x; b) as a polynomial in x times e^{-2 pi i b x}.

    Returns the coefficient list [p_0, ..., p_d] (ring scalars) such that
    C(k, x; b) = (sum_j p_j x^j) e^{-2 pi i b x}.
    """
    b = Fraction(params_b)
    if b.denominator == 1:
        return [ring.from_fraction(c) for c in bernoulli_poly_coeffs(k)]
    # C(k, x; b) = B_k(x; lam) = sum_j C(k, j) B_{k-j}(lam) x^j, B_0(lam) = 0
    bn = _apostol_numbers(ring, -b, k)
    return [ring.scale(bn[k - j], math.comb(k, j)) for j in range(k)] \
        or [ring.zero()]


def moment_integral_exact(ring, k: int, m: int, b: Fraction):
    """-(2 pi i)^k/k! * integral_0^1 C(k,x;b) e^{-2 pi i m x} dx, symbolically.

    The integrand is a polynomial times an exponential, so integration by
    parts gives a closed form inside Q(zeta_N)(pi).
    """
    b = Fraction(b)
    poly = kernel_coeff_poly(ring, k, b)
    shift = b + m
    if shift == 0:
        integral = ring.zero()
        for j, p in enumerate(poly):
            integral = integral + p * ring.from_fraction(Fraction(1, j + 1))
    else:
        c = -(ring.two_pi_i() * ring.from_fraction(shift))
        c_inv = ring.inv(c)
        e_c = ring.root_of_unity(-b)  # e^{-2 pi i (b + m)} = e^{-2 pi i b}
        integral = ring.zero()
        for j, p in enumerate(poly):
            if ring.is_zero(p):
                continue
            jfact = math.factorial(j)
            # int_0^1 x^j e^{cx} dx
            at_one = ring.zero()
            for i in range(j + 1):
                term = ring.from_fraction(Fraction((-1) ** (j - i) * jfact,
                                                   math.factorial(i)))
                at_one = at_one + term * c_inv ** (j - i + 1)
            at_zero = ring.from_fraction(Fraction((-1) ** j * jfact)) \
                * c_inv ** (j + 1)
            integral = integral + p * (e_c * at_one - at_zero)
    sign = ring.from_fraction(Fraction(-1, math.factorial(k)))
    return sign * ring.two_pi_i() ** k * integral


# ---------------------------------------------------------------------------
# series and summands
# ---------------------------------------------------------------------------


def series_constant(ring, vars, trunc, value) -> TruncatedSeries:
    """The constant `value` as a series (no term when it is zero)."""
    s = TruncatedSeries(ring, vars, trunc)
    if not ring.is_zero(value):
        s.terms[(0,) * len(s.vars)] = value
    return s


def series_variable(ring, vars, trunc, name) -> TruncatedSeries:
    """The variable `name` as a series (no term when trunc cuts degree 1)."""
    s = TruncatedSeries(ring, vars, trunc)
    e = [0] * len(s.vars)
    e[s.vars.index(name)] = 1
    if trunc.keeps(tuple(e)):
        s.terms[tuple(e)] = ring.one()
    return s


def with_truncation(s: TruncatedSeries, trunc) -> TruncatedSeries:
    """The terms of `s` that `trunc` keeps, as a series truncated there."""
    return TruncatedSeries(s.ring, s.vars, trunc, {
        e: c for e, c in s.terms.items() if trunc.keeps(e)})


def largest_coefficient_scaled(series_fn, eps: Fraction, shifts: list):
    """`series_fn` with the largest coefficient of the series it returns
    multiplied by 1 + eps; each call appends that coefficient's magnitude
    times eps, the change made, to `shifts`."""
    def scaled(*args, **kwargs):
        f = series_fn(*args, **kwargs)
        e = max(f.terms, key=lambda e: f.ring.magnitude(f.terms[e]))
        shifts.append(f.ring.magnitude(f.terms[e]) * float(eps))
        f.terms[e] = f.terms[e] * f.ring.from_fraction(1 + eps)
        return f
    return scaled


def termwise_product(ring, pairs, trunc) -> dict:
    """``ring.mul_terms`` one term pair at a time: the sum over the pairs
    (a, b) of series term maps of one scalar product per two terms whose
    exponent `trunc` keeps, added in the ring, without the ones that read
    as zero.  Independent of the rings' convolutions."""
    out = {}
    for a, b in pairs:
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                if trunc.keeps(e):
                    out[e] = ca * cb if e not in out else out[e] + ca * cb
    return {e: c for e, c in out.items() if not ring.is_zero(c)}


def termpair_product(x: ExactScalar, y: ExactScalar) -> ExactScalar:
    """``x * y`` by the general double loop: one basis-monomial product
    (``CyclotomicField.basis_product``) per pair of terms, added in
    integers over the product of the denominators and cancelled once.
    Independent of the one-term path of ``ExactScalar.__mul__`` and of
    ``ExactRing.times_root``, which move exponents."""
    field = x.field
    out: Dict[tuple, int] = {}
    for (ka, ea), va in x.terms.items():
        for (kb, eb), vb in y.terms.items():
            for e, m in field.basis_product(ea, eb):
                key = (ka + kb, e)
                out[key] = out.get(key, 0) + va * vb * m
    out = {key: v for key, v in out.items() if v}
    den = x.den * y.den
    g = math.gcd(den, *out.values())
    return ExactScalar(field, {key: v // g for key, v in out.items()},
                       den // g)


def fraction_kernel_parts(ring, params: KernelParams, order: int, base
                          ) -> list:
    """``kernel.kernel_parts`` in the exact ring by its formula in
    Fractions, a_n = sum_k B_k(lam)/k! * y^{n-k}/(n-k)!: the powers
    y^j / j! as Fractions, each term a ``ring.scale`` of the base, the
    terms added in the ring."""
    y = params.y
    ypow = [y ** j / math.factorial(j) for j in range(order + 1)]
    out = []
    for n in range(order + 1):
        acc = ring.zero()
        for k in range(n + 1):
            if ypow[n - k]:
                acc = acc + ring.scale(base[k], ypow[n - k])
        out.append(acc)
    return out


def mpc_kernel_parts(ring, params: KernelParams, order: int, base
                     ) -> list:
    """``kernel.kernel_parts`` in the numeric ring by its formula in mpc
    arithmetic, each product and sum rounded: the powers y^j / j! as
    mpfs, each term the base times one of them, the terms added in the
    ring.  The path that the exact mantissa sums replaced."""
    yv = ring.ctx.mpf(params.r) / params.d
    ypow = [yv ** j / math.factorial(j) for j in range(order + 1)]
    out = []
    for n in range(order + 1):
        acc = ring.zero()
        for k in range(n + 1):
            if ypow[n - k]:
                acc = acc + base[k] * ypow[n - k]
        out.append(acc)
    return out


def one_times(ring, vars) -> Dict[tuple, object]:
    """The constant 1 as a series term map on `vars`, the `times` of a
    ``genfun.unit_parts`` with no exponent form and nothing else to meet."""
    return {(0,) * len(vars): ring.one()}


def unit_inverse(ring, vars, trunc, form) -> TruncatedSeries:
    """1/form for a form with a nonzero constant: the generic series
    inverse of the form, independent of ``genfun.unit_parts``."""
    return form_power(form, ring, vars, trunc, 1).invert_unit()


def form_constant(form, ring):
    """-2 pi i c, the constant term of a LinearForm with exact constant c,
    in the ring; a Gaussian c as re + i im, which the exact ring reads
    too."""
    c = form.c
    if isinstance(c, GaussianRational):
        value = ring.from_fraction(c.re) + ring.root_of_unity(
            Fraction(1, 4)) * ring.from_fraction(c.im)
    else:
        value = ring.from_fraction(c)
    return -(ring.two_pi_i() * value)


def form_power(form, ring, vars, trunc, m: int) -> TruncatedSeries:
    """(a + L)^m for m >= 0, a the form's constant, as sum_n f_n (D L)^n,
    f_n = C(m, n) a^(m-n) / D^n, only f_m = 1 / D^m when the form is
    singular: the coefficient of t^e is f_|e| times the integer m of
    ``LinearForm.monomials``.  A `trunc.box` keeps only the terms with
    e_v <= box_v."""
    den = form.den
    if form.singular:
        f = {m: ring.from_fraction(Fraction(1, den ** m))}
    else:
        a = form_constant(form, ring)
        f = {n: ring.scale(a ** (m - n),
                           Fraction(math.comb(m, n), den ** n))
             for n in range(min(m, trunc.total) + 1)}
    terms = {e: ring.scale(f[n], c)
             for e, c, n in form.monomials(vars, trunc, min(m, trunc.total))
             if n in f}
    return TruncatedSeries(ring, tuple(vars), trunc, terms)


def form_exp(form, ring, vars, trunc) -> TruncatedSeries:
    """e^form = e^(-2 pi i c) e^L for a LinearForm with constant c and
    linear part L, from its closed form: the coefficient of t^e is
    e^(-2 pi i c) / (|e|! D^|e|) times the integer of
    ``LinearForm.monomials``.  Independent of ``genfun.unit_parts``, which
    expands the vertex exponentials in production; in the exact ring, c
    must be rational."""
    root = ring.root_of_unity(-form.c)
    phi, scale = [], Fraction(1)
    for n in range(trunc.total + 1):
        phi.append(ring.scale(root, scale))
        scale /= (n + 1) * form.den
    return TruncatedSeries(ring, vars, trunc, {
        e: ring.scale(phi[n], m)
        for e, m, n in form.monomials(vars, trunc, trunc.total)})


def termwise_unit_product(ring, factors, vars, trunc, exponent=None,
                          scale=1) -> TruncatedSeries:
    """``genfun.unit_parts`` with its integer series lifted term by term:
    the int numerators from ``genfun._unit_product`` (and the
    exponential's, convolved per degree n of the unit factors as
    ``unit_parts`` does), then each term lifted with one ``ring.scale``
    of root * (2 pi i)^(-(K + n)), built once per n (one more per part for
    a Gaussian numerator), the terms of one exponent added in the ring and
    every coefficient scaled by `scale` last.  Independent of
    ``ring.unit_lift``."""
    vars = tuple(vars)
    terms, den = _unit_product(factors, vars, trunc)
    K = sum(k for _, k in factors)
    keyed = [(e, sum(e), v) for e, v in terms.items()]
    step = ring.inv(ring.two_pi_i())
    lifts = [step ** K]  # lifts[n] = root * (2 pi i)^(-(K + n))
    if exponent is not None:
        monos = exponent.monomials(vars, trunc, trunc.total)
        top = max(n for _, _, n in monos)
        fact = [math.factorial(n) for n in range(top + 1)]
        D = exponent.den
        den *= fact[top] * D ** top
        fac = [(e, fact[top] // fact[n] * D ** (top - n) * m, n)
               for e, m, n in monos]
        by_degree = {}
        for e, n, v in keyed:
            by_degree.setdefault(n, {})[e] = v
        keyed = [(e, n, v) for n, part in by_degree.items()
                 for e, v in convolve(part, fac, trunc).items()]
        lifts[0] = lifts[0] * ring.root_of_unity(-exponent.c)
    for _ in range(max(map(sum, terms), default=0)):
        lifts.append(lifts[-1] * step)
    i = ring.root_of_unity(Fraction(1, 4))
    out = {}
    for e, n, v in keyed:
        if isinstance(v, int):
            x = ring.scale(lifts[n], Fraction(v, den))
        else:
            x = ring.scale(lifts[n], Fraction(v.re, den)) \
                + ring.scale(lifts[n] * i, Fraction(v.im, den))
        out[e] = x if e not in out else out[e] + x
    return TruncatedSeries(ring, vars, trunc, {
        e: ring.scale(x, Fraction(scale)) for e, x in out.items()
        if not ring.is_zero(x)})


def pairwise_unit_numerators(factors, vars, trunc):
    """``genfun._unit_product`` of the unit factors and
    ``genfun._unit_numerators`` of the singular ones, with every factor
    expanded on its own and the expansions convolved one at a time
    (``series.convolve``), the unit factors first: the path that the
    logarithmic-derivative product of the unit factors replaced.
    ``(G, den)``, G = prod (-c + L)^(-k) as int numerators
    (GaussianRationals with int parts for a Gaussian constant) over den:
    a unit factor (c != 0) as
    (-c)^(-k) sum_n C(k + n - 1, n) (L/c)^n, a singular one in the field
    of iterated Laurent series in which each variable of `vars` dominates
    the later ones, for k > 0 around the first variable t_p of
    L = q_p t_p + L' as sum_n C(k + n - 1, n) (-L')^n / (q_p t_p)^(k + n),
    and for k < 0 as the polynomial L^(-k).  Each partial product keeps
    every term from which one within `trunc` can follow: its degree
    capped at the total plus the singular k to come, and its exponent of
    t_u at box_u plus, while expansions around t_u are to come, their k
    and the caps of the later variables."""
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
        return {}, 1
    terms = {(0,) * len(vars): 1}
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
    return terms, den


def termwise_unit_summand(ctx: EvaluationContext, s, k):
    """``genfun._unit_summand_value`` as a dot product per coset: F, the
    product of the collapsed unit factors, as one ``unit_parts`` series
    in the ring, then per coset one ring product F[e] * A_w[k_B - e] per
    term of F, the coset's root, the sign and the weight last."""
    ring = ctx.ring
    members = ctx.arr.bases[s.bidx].members
    vars = tuple(ctx.vars[m] for m in members)
    box = tuple(k.weights[m] for m in members)
    trunc = Truncation(sum(box), box)
    if any(k.weights[g] == 0 for g, _ in s.unit_factors):
        return ring.zero()
    F = lift_units(ring, vars, trunc, [unit_parts(
        ring, [(_dead_unit(ctx, s.bidx, g, form), k.weights[g])
               for g, form in s.unit_factors], vars, trunc,
        times=one_times(ring, vars))])
    total = ring.zero()
    for grid, q in _coset_grids(ctx, s.bidx, trunc):
        acc = ring.zero()
        for e, f in F.terms.items():
            p = grid.get(tuple(b - x for b, x in zip(box, e)))
            if p is not None:
                acc = acc + f * p
        total = total + (acc if q is None else acc * ring.root_of_unity(q))
    sign = -1 if len(s.unit_factors) % 2 else 1
    return ring.scale(total, sign * s.weight)


def sum_by_series_products(forms: Sequence[RationalForm]) -> TruncatedSeries:
    """``series.sum_rational_forms`` with the numerators multiplied by the
    representatives they lack one series product at a time: each numerator
    scaled to its representatives term by term, times
    ``form_power`` of every missing representative, added in the
    ring and divided by the representatives."""
    num0 = forms[0].numerator
    ring, vars, trunc = num0.ring, num0.vars, num0.trunc
    universe = _divisors(f.denominators for f in forms)
    total = TruncatedSeries(ring, vars, trunc)
    for f in forms:
        num, keys = f.numerator, [d.key for d in f.denominators]
        scale = Fraction(1)
        for d, key in zip(f.denominators, keys):
            lead = min(d.coeffs)
            scale *= universe[key][0].coeffs[lead] / d.coeffs[lead]
        num = TruncatedSeries(ring, vars, trunc, {
            e: ring.scale(c, scale) for e, c in num.terms.items()})
        for key, (d, mult) in universe.items():
            if mult > keys.count(key):
                num = num * form_power(d, ring, vars, trunc,
                                       mult - keys.count(key))
        total = total + num
    for d, mult in universe.values():
        for _ in range(mult):
            total = divide_exact(total, d)
    return total


def full_order_summand(ctx: EvaluationContext, bidx: int,
                       w: Tuple[int, ...], order: int) -> RationalForm:
    """The term of coset representative w in the summand of basis bidx,
    (1/index) * prod_m K_m(w) * prod_g t_g / den_g over the unit factors
    * prod_g t_g over the singular ones, divided by the singular
    denominators: every factor a series product at `order`.  The basis's
    summand is the sum of these over its coset representatives."""
    ring, vars, trunc = ctx.ring, ctx.vars, Truncation(order)
    basis = ctx.arr.bases[bidx]
    num = series_constant(ring, vars, trunc,
                          ring.from_fraction(Fraction(1, basis.index)))
    for m in basis.members:
        params = KernelParams.make(ctx.constant(m), ctx.yhat(bidx, w, m))
        num = num * kernel_series(ring, params, order, vars[m], vars)
    denoms = []
    for g, form in ctx.geometry(bidx).items():
        num = num * series_variable(ring, vars, trunc, vars[g])
        if form.singular:
            denoms.append(form)
        else:
            num = num * unit_inverse(ring, vars, trunc, form)
    return RationalForm(num, denoms)


def summand_rational_form(ctx: EvaluationContext, s, trunc: Truncation
                          ) -> RationalForm:
    """Summand s as a rational form in every variable, its numerator
    truncated at `trunc`: its ``genfun.summand_parts`` lifted on their own
    over its singular denominators, as ``hierarchy.check_hierarchy``
    builds each surviving summand."""
    return RationalForm(lift_units(ctx.ring, ctx.vars, trunc,
                                   [summand_parts(ctx, s, trunc)]),
                        s.denominators)


# ---------------------------------------------------------------------------
# lattice data in Fractions
# ---------------------------------------------------------------------------


def relative_form(g: int, pairs: Dict[int, Fraction]) -> Dict[int, Fraction]:
    """t_g - sum_f <g, f^B> t_f, as coefficients on the functionals, from
    g's pairings {f: <g, f^B>} with the duals of a basis B."""
    lin = {g: Fraction(1)}
    lin.update((f, -c) for f, c in pairs.items() if c)
    return lin


def fraction_combination(ctx: EvaluationContext, lin: Dict[int, Fraction]
                         ) -> LinearForm:
    """``EvaluationContext.combination`` in Fraction arithmetic: the
    constant sum_x lin[x] c_x summed from the exact constants, a Gaussian
    one with no imaginary part read as its real part, and the form built
    by ``LinearForm``'s normalising constructor."""
    c = sum((q * ctx.constant(x) for x, q in lin.items()), Fraction(0))
    if isinstance(c, GaussianRational) and c.im == 0:
        c = c.re
    return LinearForm({ctx.vars[x]: q for x, q in lin.items()}, c)


def fraction_geometry(ctx: EvaluationContext, bidx: int
                      ) -> Dict[int, LinearForm]:
    """``EvaluationContext.geometry`` from the pairings <g, f^B> of the
    arrangement table, in Fractions."""
    return {g: fraction_combination(ctx, relative_form(g, pairs))
            for g, pairs in ctx.data.pairings[bidx].items()}


def fraction_dead_unit(ctx: EvaluationContext, g: int, form: LinearForm
                       ) -> LinearForm:
    """``genfun._dead_unit`` from den_g alone: its coefficients off t_g
    and its constant, negated."""
    return LinearForm({v: -q for v, q in form.coeffs.items()
                       if v != ctx.vars[g]}, -form.c)


def fraction_frac_part(y, w, basis: Basis, member: int,
                       phi: GenericDirection) -> Fraction:
    """``lattice.frac_part`` by its definition: a = <y + w, f^B> in
    Fractions, {a} = a - floor(a) when <phi, f^B> > 0, else 1 - {-a}."""
    dual = basis.dual(member)
    a = sum((Fraction(v) + wi) * d for v, wi, d in zip(y, w, dual))
    if sum(p * d for p, d in zip(phi.phi, dual)) > 0:
        return a - math.floor(a)
    return 1 - (-a - math.floor(-a))


# ---------------------------------------------------------------------------
# small exact helpers
# ---------------------------------------------------------------------------


def mat_mul(A, B):
    n, k, m = len(A), len(B), len(B[0])
    return [[sum(A[i][t] * B[t][j] for t in range(k)) for j in range(m)]
            for i in range(n)]


def lattice_contains(rows: Sequence[Sequence[int]], v: Sequence) -> bool:
    """True iff v lies in the lattice generated by the rows of the square
    integer matrix `rows`."""
    inv = intlinalg.mat_inverse(rows)
    coeffs = [sum(Fraction(v[j]) * inv[j][i] for j in range(len(v)))
              for i in range(len(rows))]
    return all(c.denominator == 1 for c in coeffs)


def later_phi(arr: Arrangement, skip: int = 1) -> GenericDirection:
    """The (skip+1)-th workable phi = (1, M, ..., M^(r-1)) by increasing
    M, for invariance tests: skip = 0 is ``lattice.choose_phi``'s."""
    for M in itertools.count(1):
        phi = tuple(M**i for i in range(arr.rank))
        if is_generic(arr, phi):
            if not skip:
                return GenericDirection(phi)
            skip -= 1


def pi_pow(ring, k: int) -> ExactScalar:
    """pi^k in the exact ring."""
    return ExactScalar(ring.field, {(k, ring.field.zero_exps): 1})


def lift(x: ExactScalar, ring) -> ExactScalar:
    """The exact scalar x in `ring`, whose cyclotomic order M is a multiple
    of x's order N: zeta_N^j is zeta_M^(j M/N)."""
    field = ring.field
    if field.N % x.field.N:
        raise ValueError("target order must be a multiple of the source")
    step = field.N // x.field.N
    out = field.zero()
    for (k, e), v in x.terms.items():
        j = x.field.zeta_exponent(e)
        out = out + pi_pow(ring, k) * field.zeta_pow(j * step) \
            * Fraction(v, x.den)
    return out


def functional_value(f: Functional, v: Sequence[int]):
    """f(v) = <d, v> + c at an integer point, in the type of c."""
    base = sum(d * x for d, x in zip(f.direction, v))
    if isinstance(f.constant, GaussianRational):
        return GaussianRational(base + f.constant.re, f.constant.im)
    return base + f.constant


def permuted(arr: Arrangement, perm: Sequence[int]) -> Arrangement:
    """The arrangement with its functionals in the order `perm`."""
    return Arrangement(arr.rank, [arr.functionals[i] for i in perm])


def led_by(arr: Arrangement, basis: Basis) -> Arrangement:
    """The arrangement with the members of `basis` first, so that it is
    the first basis, the B0 of a ``polytope.Decomposition``."""
    rest = [g for g in range(arr.size) if g not in basis.members]
    return permuted(arr, list(basis.members) + rest)


def coset_character_sum(basis: Basis, lam: Sequence[Fraction]):
    """(1/index) * sum over coset reps w of e^{2 pi i <w, lam>}.

    Requires lam in the lattice spanned by the dual basis; returns the exact
    cyclotomic value (1 if lam is integral, else 0, by character
    orthogonality).
    """
    lam = [Fraction(x) for x in lam]
    for row in basis.direction_matrix:
        pairing = sum(l * d for l, d in zip(lam, row))
        if pairing.denominator != 1:
            raise ValueError("lam must pair integrally with the basis "
                             "directions")
    N = 4
    for w in basis.coset_reps:
        val = sum(l * wi for l, wi in zip(lam, w))
        N = N * val.denominator // math.gcd(N, val.denominator)
    field = CyclotomicField(N)
    acc = field.zero()
    for w in basis.coset_reps:
        val = sum(l * wi for l, wi in zip(lam, w))
        acc = acc + field.root_of_unity(val)
    return acc * Fraction(1, basis.index)
