"""Convex-polytope reconstruction of the generating function.

Fixing a base decomposition of the arrangement into a basis B0 and the
rest L0, the averaged coset/integral form of the evaluator turns into a
lattice of polytopes P(m; y) inside the unit cube [0,1]^(#L0): one per
integer translate m, cut out by the cube facets and one slab per basis
functional.  Integrating exp(t* . x) over each polytope with the vertex
formula for simple polytopes (Brion-Lawrence: J. Lawrence, Polytope volume
computation, Math. Comp. 57, 1991; A. Barvinok, Integer Points in
Polyhedra, EMS 2008) and summing over m reassembles the full generating
function, an independent cross-check of the basis sum.

The translates are enumerated, not searched for.  P(m; y) can be nonempty
only when each <y + m, f^B0> lies in a window fixed by the cube, and every
integer m is w + sum_{f in B0} z_f f for exactly one coset representative
w of B0 and one integer vector z, with <m, f^B0> = <w, f^B0> + z_f.  So
for each w the z_f run over the integers of f's window shifted by
<w, f^B0>.

All geometry (vertices, incidence, edges) is exact rational arithmetic in
the coordinates of L0, computed once per translate m.  Each vertex comes
from a witness (B, A): it lies on the hyperplanes (g, a_g) for g outside
B by construction, and on another one exactly when one of its basis
values q_f = <y + m - sum a_g g, f^B>, f in B, is 0 or 1.  A polytope is
therefore simple exactly when no witness has a basis value 0 or 1.  The
basis values are <y + m, f^B> less the pairings <g, f^B> of the
arrangement table, one per g with a_g = 1.  Off the singular locus no
basis value is 0 or 1; ``genfun_via_polytopes`` refuses a y on it.

Everything else a vertex contributes is read off its witness.  With
t*_g = t_g - sum_{f in B0} <g, f^B0> t_f, the exponent of a vertex p,
sum_{f in B0} <y + m, f^B0> (t_f - 2 pi i c_f) + t* . p, is

    sum_{g not in B} a_g (t_g - 2 pi i c_g)
      + sum_{f in B} q_f (t_f - 2 pi i c_f),

a rational combination of the functionals.  The vertices of a translate
share its B0 part, so the denominator t* . (p - p') of an edge is the
difference of the exponents at its two ends.  The evaluator's builder
(``EvaluationContext.combination``) returns each exponent and edge
denominator as an exact ``LinearForm``.  From its exact constant an edge
denominator is singular, to be divided out after summing, or a unit.
The numerator of a vertex, its weight |det| / |Z^r / L_B0| (the edge
determinant over the index of B0), its exponential and the inverses of
its unit edge denominators, is one exact product
(``genfun.unit_parts``, the one expansion of every unit inverse): a
series over Q in integers, with no series product.  The vertices with no
singular edge, of every translate, are added in integers and lifted in
one ``genfun.lift_units``, each coefficient built once from its
numerators, the vertices' roots of unity and weights; a vertex with a
singular edge is lifted on its own and divided with the others of its
translate.

The vertex sums are multiplied by the kernel prefactor prod_f K_f(0) at
y = 0.  K_f(0) is t_f / (e^{t_f - 2 pi i c_f} - 1): a unit when c_f is an
integer, t_f times a unit otherwise.  So with `a` non-integral constants
the prefactor is prod t_f over them times a unit, and the vertex forms,
their divisions and the product with the unit run `a` degrees below the
working order; prod t_f is then applied once, as an exponent shift, as
the summand builder of the basis sum does.
"""

from __future__ import annotations

import itertools
import math
import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import intlinalg
from .errors import NotSimple
from .genfun import (EvaluationContext, UnitParts, _context, lift_units,
                     unit_parts)
from .kernel import KernelParams, kernel_series
from .lattice import Arrangement, Basis, arrangement_data, in_singular_locus
from .series import (RationalForm, TruncatedSeries, Truncation,
                     coefficient_discrepancy, division_count,
                     sum_rational_forms)

Label = Tuple[int, int]  # (functional index, side a)


@dataclass
class VertexWitness:
    basis_members: Tuple[int, ...]
    sides: Dict[int, int]  # a_g for g outside the basis
    point: Tuple[Fraction, ...]
    basis_values: Dict[int, Fraction]  # <y + m - sum a_g g, f^B> per f in B
    incident: Tuple[Label, ...]

    @property
    def exponent(self) -> Dict[int, Fraction]:
        """The vertex's exponent as a combination of the functionals (see
        the module docstring): a_g outside the basis, q_f in it."""
        return {**self.sides, **self.basis_values}


class Decomposition:
    """The split of the arrangement into its first basis B0 and the
    remainder L0."""

    def __init__(self, arr: Arrangement):
        self.arr = arr
        self.data = data = arrangement_data(arr)
        self.b0: Basis = data.bases[0]
        # {g in L0: {f in B0: <g, f^B0>}}, from the arrangement table
        self.pairings = data.pairings[0]
        self.l0: Tuple[int, ...] = tuple(self.pairings)

    def dual_pair(self, g: int, member: int) -> Fraction:
        """<direction(g), dual of member in B0>."""
        return self.pairings[g][member]


def enumerate_m(dec: Decomposition, y: Sequence[Fraction]
                ) -> List[Tuple[int, ...]]:
    """All integer translates m with P(m; y) nonempty."""
    return [m for m, _ in _translates(dec, y)]


def _translates(dec: Decomposition, y: Sequence[Fraction]
                ) -> List[Tuple[Tuple[int, ...], List[VertexWitness]]]:
    """(m, vertices of P(m; y)) for every nonempty P(m; y), sorted by m.

    Over the unit cube, <y + m, f^B0> ranges over [lo_f, hi_f + 1] with
    lo_f (hi_f) the sum of the negative (positive) <g, f^B0>, g in L0.
    Each candidate m = w + sum z_f f in those windows is kept when it
    carries at least one vertex (in dimension zero, the point itself).
    """
    arr, b0, l0 = dec.arr, dec.b0, dec.l0
    y = [Fraction(v) for v in y]
    windows = []
    for f in b0.members:
        pairs = [dec.dual_pair(g, f) for g in l0]
        ydot = sum(yv * d for yv, d in zip(y, b0.dual(f)))
        windows.append((sum(c for c in pairs if c < 0) - ydot,
                        sum(c for c in pairs if c > 0) + 1 - ydot))
    dirs = [arr.functionals[f].direction for f in b0.members]
    out = []
    for w in b0.coset_reps:
        ranges = []
        for f, (lo, hi) in zip(b0.members, windows):
            wdot = sum(wv * d for wv, d in zip(w, b0.dual(f)))
            ranges.append(range(math.ceil(lo - wdot),
                                math.floor(hi - wdot) + 1))
        for z in itertools.product(*ranges):
            m = tuple(wv + sum(zf * d[i] for zf, d in zip(z, dirs))
                      for i, wv in enumerate(w))
            verts = vertices(dec, m, y)
            if verts:
                out.append((m, verts))
    return sorted(out, key=lambda item: item[0])


def vertices(dec: Decomposition, m: Sequence[int], y: Sequence[Fraction]
             ) -> List[VertexWitness]:
    """Vertices of P(m; y) from their witnesses (basis, side vector).

    Every vertex arises from a witness W = (B, A): it is the intersection
    of the hyperplanes labelled (g, a_g) for g outside B, and it belongs to
    the polytope iff its basis values q_f, f in B, lie in [0, 1] (from
    the table's pairings, see the module docstring).  Its coordinate on g
    in L0 is q_g in B and a_g outside.  A vertex with several witnesses is
    kept once, with the first."""
    ym = [Fraction(v) + mv for v, mv in zip(y, m)]
    out = []
    seen_points = set()
    for b, pairs in zip(dec.data.bases, dec.data.pairings):
        base = {f: sum(v * d for v, d in zip(ym, b.dual(f)))
                for f in b.members}
        # pairs holds the g outside b, in index order
        for sides in itertools.product((0, 1), repeat=len(pairs)):
            a = dict(zip(pairs, sides))
            qvals = dict(base)
            for g, ag in a.items():
                if ag:
                    for f, c in pairs[g].items():
                        qvals[f] -= c
            if not all(0 <= q <= 1 for q in qvals.values()):
                continue
            point = tuple(qvals[g] if g in qvals else Fraction(a[g])
                          for g in dec.l0)
            if point in seen_points:
                continue
            seen_points.add(point)
            out.append(VertexWitness(b.members, a, point, qvals,
                                     tuple(sorted(a.items()))))
    out.sort(key=lambda w: (w.point, w.basis_members))
    return out


def witnesses_simple(verts: List[VertexWitness]) -> bool:
    """Every vertex on exactly the hyperplanes of its witness: no basis
    value is 0 or 1."""
    return all(q != 0 and q != 1
               for w in verts for q in w.basis_values.values())


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


# ---------------------------------------------------------------------------
# series reconstruction
# ---------------------------------------------------------------------------


def _vertex_parts(ctx: EvaluationContext, dec: Decomposition, exponent,
                  edges, dens, order: int) -> UnitParts:
    """The numerator of a vertex, |det| / index * e^{exponent} over its
    unit edge denominators t* . (p - p'), as the integer parts of one
    exact unit product (``genfun.unit_parts``), before the lift; the
    vertex's singular edge denominators are left to the caller."""
    n = len(dec.l0)
    detv = abs(intlinalg.det([[e[t] for e in edges] for t in range(n)]))
    units = [(den, 1) for den in dens if not den.singular]
    return unit_parts(ctx.ring, units, ctx.vars, Truncation(order),
                      exponent, Fraction(detv, dec.b0.index))


def genfun_via_polytopes(arr: Arrangement, y: Sequence, order: int,
                         mode: Optional[str] = None,
                         precision: Optional[int] = None,
                         ctx: Optional[EvaluationContext] = None
                         ) -> TruncatedSeries:
    """Reassemble the generating function from polytope integrals, over
    the decomposition at the first basis.

    A y on the singular locus (tested exactly) raises ValueError before
    anything is built; off it, a non-simple polytope raises NotSimple.
    Each vertex exponent is the combination of its witness's sides and
    basis values, and each edge denominator the difference of the
    exponents at its ends, both built by the evaluator's denominator
    builder (``EvaluationContext.combination``).  The vertices with no
    singular edge divide nothing: their parts (``_vertex_parts``) are
    lifted together, in one ``lift_units``.  Each translate's vertex
    forms with a singular edge are summed on their own, and each exact
    division of that sum loses one degree, so the singular ones set the
    extra truncation order: the working order is order + divisions, with
    the divisions (``division_count``) of the translate that needs the
    most.
    """
    if in_singular_locus(y, arr):
        shown = ", ".join(str(Fraction(v)) for v in y)
        raise ValueError(f"y = ({shown}) lies on the singular locus, where "
                         f"the fractional parts jump and the polytopes are "
                         f"not all simple; choose a shift off it")
    ctx = _context(arr, y, mode, precision, None, ctx)
    ring = ctx.ring
    dec, translates = _walk(ctx)
    n = len(dec.l0)
    cells = []   # per translate: [(exponent, edge vectors, denominators)]
    divisions = 0
    for m, verts in translates:
        if not witnesses_simple(verts):
            raise NotSimple(f"polytope at m={m} is not simple")
        adj = adjacency(verts)
        if any(len(nb) != n for nb in adj):
            raise NotSimple(f"polytope at m={m} has a vertex of wrong degree")
        # an edge denominator t* . (p - p') is the exponents' difference
        lins = [w.exponent for w in verts]
        cell = []
        for w, lin, nbrs in zip(verts, lins, adj):
            edges = [tuple(pk - pj for pk, pj in zip(w.point, verts[j].point))
                     for j in nbrs]
            dens = [ctx.combination({x: c - lins[j][x]
                                     for x, c in lin.items()})
                    for j in nbrs]
            cell.append((ctx.combination(lin), edges, dens))
        cells.append(cell)
        divisions = max(divisions, division_count(
            [d for d in ds if d.singular] for _, _, ds in cell))
    work = order + divisions
    # prod_f K_f(0) is prod t_f over the non-integral constants times a
    # unit, so the vertex sums are needed that many degrees lower
    params = [KernelParams.make(ctx.constant(f), Fraction(0))
              for f in range(arr.size)]
    monomial = [v for v, p in zip(ctx.vars, params) if not p.integral]
    low = work - len(monomial)
    if low < 0:
        return TruncatedSeries(ring, ctx.vars, Truncation(order))
    trunc = Truncation(low)
    total, plain = TruncatedSeries(ring, ctx.vars, trunc), []
    for cell in cells:
        forms = []
        for exponent, edges, dens in cell:
            parts = _vertex_parts(ctx, dec, exponent, edges, dens, low)
            singular = [den for den in dens if den.singular]
            if singular:
                forms.append(RationalForm(
                    lift_units(ring, ctx.vars, trunc, [parts]), singular))
            else:
                plain.append(parts)
        if forms:
            total = total + sum_rational_forms(forms)
    total = total + lift_units(ring, ctx.vars, trunc, plain)
    total = total * _kernel_prefactor(ctx, params, low)
    return total.shifted(monomial, Truncation(order))


# the walk over the first basis per live context (``_walk``)
_walks: "weakref.WeakKeyDictionary[EvaluationContext, tuple]" = \
    weakref.WeakKeyDictionary()


def _walk(ctx: EvaluationContext
          ) -> Tuple[Decomposition, List[Tuple[Tuple[int, ...],
                                               List[VertexWitness]]]]:
    """The decomposition at the first basis of ctx's arrangement and its
    ``_translates`` at ctx's y, walked once per context: a
    ``polytope_report`` counts the translates and reassembles the series
    from the same walk."""
    got = _walks.get(ctx)
    if got is None:
        dec = Decomposition(ctx.arr)
        got = _walks[ctx] = (dec, _translates(dec, ctx.y))
    return got


def _kernel_prefactor(ctx: EvaluationContext, params: List[KernelParams],
                      order: int) -> TruncatedSeries:
    """prod_f kernel(c_f, 0)(t_f), with the factor t_f of every
    non-integral c_f taken out, through total degree `order`: one outer
    product of the univariate coefficient lists."""
    ring = ctx.ring
    terms = {(): ring.one()}
    for p, var in zip(params, ctx.vars):
        lift = 0 if p.integral else 1
        coeffs = kernel_series(ring, p, order + lift, var=var).terms
        terms = {e + (j - lift,): c * cj for e, c in terms.items()
                 for (j,), cj in coeffs.items()
                 if j >= lift and sum(e) + j - lift <= order}
    return TruncatedSeries(ring, ctx.vars, Truncation(order), terms)


def polytope_report(arr: Arrangement, y: Sequence, order: int,
                    mode: str = "exact", precision: int = 128) -> dict:
    """Per-m vertex counts and simplicity flags plus the maximum
    coefficientwise discrepancy between the reconstruction and the direct
    series (exact zero expected in exact mode).  The reconstruction is
    built first, so a y on the singular locus raises ValueError before any
    series; so does an `order` through which neither series has a term."""
    from .genfun import generating_function
    ctx = EvaluationContext(arr, y, mode, precision)
    f_poly = genfun_via_polytopes(arr, y, order, ctx=ctx)
    # the walk that the reconstruction made, read back through ctx
    per_m = [{"m": list(m), "vertices": len(verts),
              "simple": witnesses_simple(verts)}
             for m, verts in _walk(ctx)[1]]
    f_direct = generating_function(arr, y, order, ctx=ctx)
    if not f_direct.terms and not f_poly.terms:
        raise ValueError(f"neither series has a nonzero coefficient through "
                         f"order {order}, so nothing is compared; raise the "
                         f"order")
    disc = coefficient_discrepancy(
        ctx.ring, ((f_direct.coefficient(e), f_poly.coefficient(e))
                   for e in set(f_direct.terms) | set(f_poly.terms)))
    if mode == "exact":
        disc = "0 (exact)" if disc == 0 else f"{disc} coefficients"
    return {
        "m_count": len(per_m),
        "per_m": per_m,
        "order": order,
        "max_discrepancy": disc,
    }
