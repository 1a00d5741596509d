"""Convex-polytope reconstruction of the generating function.

Fixing a base decomposition of the arrangement into a basis B0 and the
rest L0, the averaged coset/integral form of the evaluator turns into a
lattice of polytopes P(m; y) inside the unit cube [0,1]^(#L0): one per
integer translate m, cut out by the cube facets and one slab per basis
functional.  Integrating exp(t* . x) over each polytope with the vertex
formula for simple polytopes and summing over m reassembles the full
generating function, an independent cross-check of the basis sum.

All geometry (vertices, incidence, edges) is exact rational arithmetic in
the coordinates of L0, computed once per translate m.  The functional
constants only enter through the exponential prefactors and the edge
denominators t* . (p - p'), which are rational combinations of the
functionals.  The evaluator's builder (``EvaluationContext.combination``)
returns each, and each vertex exponent, as an exact ``LinearForm``.  From
its exact constant an edge denominator is singular, to be divided out
after summing, or a unit, whose inverse is expanded in closed form; the
vertex exponential e^{t* . p} is expanded in closed form too
(``LinearForm.exp``), with no series product.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import intlinalg
from .errors import DegenerateExponent, NotSimple
from .genfun import EvaluationContext, _context
from .kernel import KernelParams, kernel_series
from .lattice import Arrangement, Basis, in_singular_locus
from .series import (RationalForm, TruncatedSeries, Truncation,
                     sum_rational_forms)

Label = Tuple[int, int]  # (functional index, side a)


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


@dataclass
class VertexWitness:
    basis_members: Tuple[int, ...]
    sides: Dict[int, int]  # a_g for g outside the basis
    point: Tuple[Fraction, ...]
    basis_values: Dict[int, Fraction]  # <y + m - sum a_g g, f^B> per f in B
    incident: Tuple[Label, ...]


class Decomposition:
    """A fixed split of the arrangement into basis B0 and remainder L0."""

    def __init__(self, arr: Arrangement, b0_index: int = 0):
        self.arr = arr
        self.b0_index = b0_index
        self.b0: Basis = arr.bases[b0_index]
        self.l0: Tuple[int, ...] = tuple(i for i in range(arr.size)
                                         if i not in self.b0.members)

    def dual_pair(self, g: int, member: int) -> Fraction:
        """<direction(g), dual of member in B0>."""
        return sum(Fraction(d) * e for d, e in
                   zip(self.arr.functionals[g].direction,
                       self.b0.dual(member)))


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


def enumerate_m(dec: Decomposition, y: Sequence[Fraction]
                ) -> List[Tuple[int, ...]]:
    """All integer translates m with P(m; y) nonempty."""
    return [m for m, _ in _translates(dec, y)]


def _translates(dec: Decomposition, y: Sequence[Fraction]
                ) -> List[Tuple[Tuple[int, ...], List[VertexWitness]]]:
    """(m, vertices of P(m; y)) for every nonempty P(m; y), sorted by m.

    Interval arithmetic over the unit cube gives a window per basis
    functional; candidates in the window are kept when they carry at least
    one vertex (in dimension zero, the point itself).
    """
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


def vertices(dec: Decomposition, m: Sequence[int], y: Sequence[Fraction],
             check_unique: bool = False) -> List[VertexWitness]:
    """Vertices of P(m; y) from their witnesses (basis, side vector).

    Every vertex arises from a witness W = (B, A): it is the intersection
    of the hyperplanes labelled (g, a_g) for g outside B, and it belongs to
    the polytope iff all basis inner products lie in [0, 1]."""
    arr, l0 = dec.arr, dec.l0
    y = [Fraction(v) for v in y]
    out = []
    seen_points = {}
    for b in arr.bases:
        outside = tuple(i for i in range(arr.size) if i not in b.members)
        for sides in itertools.product((0, 1), repeat=len(outside)):
            a = dict(zip(outside, sides))
            shift = [Fraction(v) for v in y]
            for g, ag in a.items():
                if ag:
                    gd = arr.functionals[g].direction
                    shift = [s - d for s, d in zip(shift, gd)]
            shift = [s + mv for s, mv in zip(shift, m)]
            qvals = {}
            ok = True
            for f in b.members:
                q = sum(s * d for s, d in zip(shift, b.dual(f)))
                if not (0 <= q <= 1):
                    ok = False
                    break
                qvals[f] = q
            if not ok:
                continue
            point = []
            for g in l0:
                if g not in b.members:
                    point.append(Fraction(a[g]))
                else:
                    point.append(sum(s * d for s, d in
                                     zip(shift, b.dual(g))))
            point = tuple(point)
            incident = tuple(sorted((g, a[g]) for g in outside))
            w = VertexWitness(b.members, a, point, qvals, incident)
            if point in seen_points:
                if check_unique:
                    raise NotSimple(
                        f"two witnesses give the same vertex {point}: "
                        f"the point lies on the singular locus")
                continue
            seen_points[point] = w
            out.append(w)
    out.sort(key=lambda w: (w.point, w.basis_members))
    return out


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
    hyperplanes and keep feasible intersection points.  Cross-check only."""
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


def adjacency(verts: List[VertexWitness]) -> List[List[int]]:
    """Edge graph of a simple polytope: vertices are adjacent iff they share
    all but one incident hyperplane."""
    n = len(verts[0].incident) if verts else 0
    out = []
    for i, w in enumerate(verts):
        nbrs = []
        si = set(w.incident)
        for j, w2 in enumerate(verts):
            if i != j and len(si & set(w2.incident)) == n - 1:
                nbrs.append(j)
        out.append(nbrs)
    return out


def exp_integral_simple(verts: List[VertexWitness], a_vec: Sequence,
                        ctx) -> object:
    """Numeric vertex formula for int_P exp(a . x) dx over a simple polytope.

    a_vec is a vector of numeric scalars; raises DegenerateExponent when an
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
                raise DegenerateExponent("edge direction annihilates the "
                                         "exponent vector")
            denom *= d
        total += abs(ctx.mpf(detv.numerator) / ctx.mpf(detv.denominator)) \
            * ctx.exp(expo) / denom
    return total


# ---------------------------------------------------------------------------
# series reconstruction
# ---------------------------------------------------------------------------


def _tstar_data(dec: Decomposition) -> Dict[int, Dict[int, Fraction]]:
    """Per g in L0: t*_g = t_g - sum_{f in B0} <g, f^B0> t_f as a
    combination of the functionals."""
    out = {}
    for g in dec.l0:
        lin: Dict[int, Fraction] = {g: Fraction(1)}
        for f in dec.b0.members:
            c = dec.dual_pair(g, f)
            if c:
                lin[f] = lin.get(f, Fraction(0)) - c
        out[g] = lin
    return out


def _tstar_combination(tstar, dec: Decomposition, v) -> Dict[int, Fraction]:
    """t* . v as a combination of the functionals."""
    out: Dict[int, Fraction] = {}
    for g, vg in zip(dec.l0, v):
        if vg == 0:
            continue
        for x, c in tstar[g].items():
            out[x] = out.get(x, Fraction(0)) + vg * c
    return out


def _vertex_rational_form(ctx: EvaluationContext, dec: Decomposition,
                          m, y, w: VertexWitness, edges, dens, tstar,
                          order: int) -> RationalForm:
    ring = ctx.ring
    trunc = Truncation(order)
    n = len(dec.l0)
    # exponent: sum_{f in B0} (t_f - 2 pi i c_f) <y+m, f^B0> + t* . p
    coeff = {f: sum((Fraction(yv) + mv) * d
                    for yv, mv, d in zip(y, m, dec.b0.dual(f)))
             for f in dec.b0.members}
    for x, c in _tstar_combination(tstar, dec, w.point).items():
        coeff[x] = coeff.get(x, Fraction(0)) + c
    num = ctx.combination(coeff).exp(ring, ctx.vars, trunc)
    detv = abs(intlinalg.det([[e[t] for e in edges] for t in range(n)]))
    num = num.scalar_mul(ring.from_fraction(detv))
    # edge denominators t* . (p - p')
    denoms = []
    for den in dens:
        if den.singular:
            denoms.append(den)
        else:
            num = num * den.inverse_power(ring, ctx.vars, trunc, 1)
    return RationalForm(num, denoms)


def genfun_via_polytopes(arr: Arrangement, y: Sequence, order: int,
                         mode: str = "exact", precision: int = 128,
                         b0_index: int = 0,
                         ctx: Optional[EvaluationContext] = None
                         ) -> TruncatedSeries:
    """Reassemble the generating function from polytope integrals.

    Requires y off the singular locus (exactly tested for rational y);
    raises NotSimple if a polytope fails the simplicity expected there.
    The edge denominators come from the evaluator's denominator builder
    (``EvaluationContext.combination``); the distinct singular ones set the
    extra truncation order the exact divisions consume.
    """
    y = [Fraction(v) for v in y]
    if in_singular_locus(y, arr):
        raise NotSimple("y lies on the singular locus; the polytopes are "
                        "not all simple there")
    ctx = _context(arr, y, mode, precision, None, ctx)
    ring = ctx.ring
    dec = Decomposition(arr, b0_index)
    tstar = _tstar_data(dec)
    n = len(dec.l0)
    cells = []   # (m, [(vertex, edge vectors, edge denominators)])
    singular = set()
    for m, verts in _translates(dec, y):
        if not is_simple(build_polytope(dec, m, y), verts):
            raise NotSimple(f"polytope at m={m} is not simple")
        adj = adjacency(verts)
        if any(len(nb) != n for nb in adj):
            raise NotSimple(f"polytope at m={m} has a vertex of wrong degree")
        cell = []
        for w, nbrs in zip(verts, adj):
            edges = [tuple(pk - pj for pk, pj in zip(w.point, verts[j].point))
                     for j in nbrs]
            dens = [ctx.combination(_tstar_combination(tstar, dec, e))
                    for e in edges]
            singular.update(d.key for d in dens if d.singular)
            cell.append((w, edges, dens))
        cells.append((m, cell))
    work = order + len(singular) + 1 if singular else order
    trunc_work = Truncation(work)
    total = TruncatedSeries(ring, ctx.vars, trunc_work)
    for m, cell in cells:
        total = total + sum_rational_forms([
            _vertex_rational_form(ctx, dec, m, y, w, edges, dens, tstar, work)
            for w, edges, dens in cell])
    prefactor = TruncatedSeries.one(ring, ctx.vars, trunc_work)
    for f in range(arr.size):
        params = KernelParams.make(ctx.constant(f), Fraction(0))
        prefactor = prefactor * kernel_series(
            ring, params, work, var=ctx.vars[f]).extend(ctx.vars, trunc_work)
    total = total * prefactor
    total = total.scalar_mul(ring.from_fraction(Fraction(1, dec.b0.index)))
    return total.with_truncation(Truncation(order))


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


def polytope_report(arr: Arrangement, y: Sequence, order: int,
                    mode: str = "exact", precision: int = 128) -> dict:
    """Per-m vertex counts and simplicity flags plus the maximum
    coefficientwise discrepancy between the reconstruction and the direct
    series (exact zero expected in exact mode)."""
    from .genfun import generating_function
    y = [Fraction(v) for v in y]
    ctx = EvaluationContext(arr, y, mode, precision)
    dec = Decomposition(arr, 0)
    per_m = []
    for m, verts in _translates(dec, y):
        poly = build_polytope(dec, m, y)
        per_m.append({
            "m": list(m),
            "vertices": len(verts),
            "simple": bool(is_simple(poly, verts)),
        })
    f_direct = generating_function(arr, y, order, mode=mode,
                                   precision=precision, ctx=ctx,
                                   check_excluded=False)
    f_poly = genfun_via_polytopes(arr, y, order, mode=mode,
                                  precision=precision, ctx=ctx)
    exps = set(f_direct.terms) | set(f_poly.terms)
    if mode == "exact":
        max_disc = 0
        mismatches = 0
        for e in exps:
            if not (f_direct.coefficient(e) == f_poly.coefficient(e)):
                mismatches += 1
        disc = "0 (exact)" if mismatches == 0 else f"{mismatches} coefficients"
    else:
        worst = 0.0
        for e in exps:
            d = abs(complex(f_direct.coefficient(e))
                    - complex(f_poly.coefficient(e)))
            worst = max(worst, d)
        disc = worst
    return {
        "m_count": len(per_m),
        "per_m": per_m,
        "order": order,
        "max_discrepancy": disc,
    }
