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
  exponential of a linear form from its closed form, and
  one coset's term of a basis's summand built at full order, one series
  product per kernel, per t_g and per unit inverse;
* the constant and single-variable series those products start from;
* small exact helpers that only the tests use: a matrix product, lattice
  membership, the powers of pi, an exact scalar re-expressed in a larger
  cyclotomic field, a functional's value at a lattice point, an
  arrangement with its functionals reordered, the character sums over a
  basis's coset representatives and a series builder with one
  coefficient perturbed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List, Sequence, Tuple, Union

from latticesums import intlinalg
from latticesums.cyclotomic import CyclotomicField
from latticesums.errors import NotSimple
from latticesums.genfun import EvaluationContext
from latticesums.kernel import (KernelParams, _apostol_numbers, exp_2pii,
                                bernoulli_numbers, kernel_series)
from latticesums.lattice import (Arrangement, Basis, Functional,
                                 GaussianRational)
from latticesums.polytope import (Decomposition, Label, VertexWitness,
                                  adjacency, vertices)
from latticesums.scalar import ExactScalar
from latticesums.series import RationalForm, TruncatedSeries, Truncation

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
                base = [dec.dual_pair(g, f) for g in l0]
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
        pref = exp_2pii(ring, params.b, -Fraction(params.y))
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
    bn = _apostol_numbers(ring, exp_2pii(ring, b, -1), k)
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


def unit_inverse(ring, vars, trunc, form) -> TruncatedSeries:
    """1/form for a form with a nonzero constant: the generic series
    inverse of the form, independent of ``genfun.unit_product``."""
    return form.power(ring, vars, trunc, 1).invert_unit()


def form_exp(form, ring, vars, trunc) -> TruncatedSeries:
    """e^form = e^(-2 pi i c) e^L for a LinearForm with constant c and
    linear part L, from its closed form: the coefficient of t^e is
    e^(-2 pi i c) / (|e|! D^|e|) times the integer of
    ``LinearForm.monomials``.  Independent of ``genfun.unit_product``, which
    expands the vertex exponentials in production; in the exact ring, c
    must be rational."""
    root = exp_2pii(ring, form.c, -1)
    phi, scale = [], Fraction(1)
    for n in range(trunc.total + 1):
        phi.append(ring.scale(root, scale))
        scale /= (n + 1) * form.den
    return TruncatedSeries(ring, vars, trunc, {
        e: ring.scale(phi[n], m)
        for e, m, n in form.monomials(vars, trunc, trunc.total)})


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
    for g, form in ctx.geometry(bidx):
        num = num * series_variable(ring, vars, trunc, vars[g])
        if form.singular:
            denoms.append(form)
        else:
            num = num * unit_inverse(ring, vars, trunc, form)
    return RationalForm(num, denoms)


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
