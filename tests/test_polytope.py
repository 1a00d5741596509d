import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st
from mpmath.ctx_mp import MPContext

from latticesums import intlinalg, polytope
from latticesums.families import a2_directions, hurwitz_a1, triangle
from latticesums.genfun import (EvaluationContext, UnitParts,
                                generating_function, lift_units,
                                relative_form)
from latticesums.lattice import (Arrangement, GaussianRational,
                                 in_singular_locus, make_functional)
from latticesums.polytope import (Decomposition, VertexWitness,
                                  enumerate_m, genfun_via_polytopes,
                                  polytope_report, vertices,
                                  witnesses_simple, _translates)
from latticesums.series import TruncatedSeries
from reference import (HalfSpace, HPolytope, box_translates,
                       brute_force_vertices, build_polytope,
                       exp_integral_simple, form_exp,
                       incident_hyperplane_count, is_simple,
                       largest_coefficient_scaled, led_by, permuted,
                       unit_inverse, witness_matrix)

CTX = MPContext()
CTX.prec = 140


def slab_instance(a1=Fraction(1, 4), a2=Fraction(1, 3)):
    """Directions e1, e2, (1,1), (1,2): the two-slab picture in the square."""
    return Arrangement(2, [make_functional((1, 0), a1),
                           make_functional((0, 1), a2),
                           make_functional((1, 1), Fraction(1, 5)),
                           make_functional((1, 2), Fraction(1, 7))])


GENERIC_Y = (Fraction(1, 7), Fraction(2, 11))


def test_enumerate_m_matches_direct_scan():
    arr = slab_instance()
    dec = Decomposition(arr)
    ms = enumerate_m(dec, GENERIC_Y)
    assert ms
    # direct scan over a generous box
    direct = []
    for m in itertools.product(range(-4, 5), repeat=2):
        if vertices(dec, m, GENERIC_Y):
            direct.append(m)
    assert ms == sorted(direct)


def test_enumerate_m_translation_equivariance():
    arr = slab_instance()
    dec = Decomposition(arr)
    ms = enumerate_m(dec, GENERIC_Y)
    w = (3, -2)
    yw = tuple(v + x for v, x in zip(GENERIC_Y, w))
    ms_shift = enumerate_m(dec, yw)
    assert ms_shift == sorted(tuple(a - b for a, b in zip(m, w)) for m in ms)


DIRECTIONS_1 = [(1,), (-1,), (2,), (3,), (-2,)]
DIRECTIONS_2 = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2), (-1, 2)]


def _rational(dens):
    return st.sampled_from(dens).flatmap(
        lambda d: st.integers(-d, 2 * d).map(lambda n: Fraction(n, d)))


@st.composite
def _arrangements(draw, rank, dens):
    """(arrangement, y): rank + 1 or rank + 2 functionals with rational
    constants, and y with coordinates over `dens`."""
    pool = DIRECTIONS_1 if rank == 1 else DIRECTIONS_2
    dirs = draw(st.lists(st.sampled_from(pool), min_size=rank + 1,
                         max_size=rank + 2))
    assume(intlinalg.rank(dirs) == rank)
    consts = draw(st.lists(_rational((1, 2, 3, 5)), min_size=len(dirs),
                           max_size=len(dirs)))
    arr = Arrangement(rank, [make_functional(d, c)
                             for d, c in zip(dirs, consts)])
    y = tuple(draw(st.lists(_rational(dens), min_size=rank,
                            max_size=rank)))
    return arr, y


@pytest.mark.parametrize("rank", [1, 2])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_translates_match_box_scan(rank, data):
    # the translates enumerated through the coset representatives are
    # exactly the nonempty cells of a scan of a box holding every window
    # at each basis B0, the functionals permuted to lead with it
    arr, y = data.draw(_arrangements(rank, (7, 11, 13)))
    assume(not in_singular_locus(y, arr))
    for b0 in arr.bases:
        dec = Decomposition(led_by(arr, b0))
        got = _translates(dec, y)
        assert got
        assert got == box_translates(dec, y)


@pytest.mark.parametrize("rank", [1, 2])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_witness_simplicity_matches_incidence_count(rank, data):
    # shifts over small denominators often lie on the singular locus,
    # where polytopes stop being simple
    arr, y = data.draw(_arrangements(rank, (1, 2, 3, 7)))
    for b0 in arr.bases:
        dec = Decomposition(led_by(arr, b0))
        for m, verts in _translates(dec, y):
            assert witnesses_simple(verts) == \
                is_simple(build_polytope(dec, m, y), verts)


def test_zero_dimensional_case():
    arr = Arrangement(2, [make_functional((1, 0), Fraction(1, 3)),
                          make_functional((0, 1), Fraction(1, 5))])
    dec = Decomposition(arr)
    ms = enumerate_m(dec, GENERIC_Y)
    # for y strictly inside the unit cell exactly one translate fits
    assert ms == [(0, 0)]
    ctx = EvaluationContext(arr, GENERIC_Y, "exact")
    F1 = generating_function(arr, GENERIC_Y, 4, ctx=ctx)
    F2 = genfun_via_polytopes(arr, GENERIC_Y, 4, ctx=ctx)
    exps = set(F1.terms) | set(F2.terms)
    assert all(F1.coefficient(e) == F2.coefficient(e) for e in exps)


def test_vertices_against_brute_force():
    arr = slab_instance()
    dec = Decomposition(arr)
    for m in enumerate_m(dec, GENERIC_Y):
        verts = vertices(dec, m, GENERIC_Y)
        poly = build_polytope(dec, m, GENERIC_Y)
        brute = brute_force_vertices(poly)
        assert sorted(w.point for w in verts) == brute


def _dot(u, v):
    return sum(Fraction(a) * b for a, b in zip(u, v))


def _tstar(dec):
    """Per g in L0: t*_g = t_g - sum_{f in B0} <g, f^B0> t_f as a
    combination of the functionals, paired from the directions and the
    duals of B0."""
    return {g: relative_form(g, {
                f: _dot(dec.arr.functionals[g].direction, dec.b0.dual(f))
                for f in dec.b0.members})
            for g in dec.l0}


def _check_witnesses(arr, y):
    """At every choice of B0, the witness data of every vertex against
    the directions and the duals: the points against the brute-force
    vertices of the H-polytope, each basis value against
    <y + m - sum a_g g, f^B>, the exponent against
    sum_{f in B0} <y + m, f^B0> (t_f - 2 pi i c_f) + t* . p, and every edge
    denominator of the reconstruction (at B0 the first basis of the
    functionals permuted to lead with it) against t* . (p - p')."""
    dirs = [f.direction for f in arr.functionals]
    for b0 in arr.bases:
        perm = list(b0.members) + [g for g in range(arr.size)
                                   if g not in b0.members]
        arr_p = permuted(arr, perm)
        dec = Decomposition(arr_p)
        assert dec.b0.members == tuple(range(arr.rank))
        tstar = _tstar(dec)
        dirs_p = [dirs[g] for g in perm]
        by_members = {b.members: b for b in arr_p.bases}
        translates = _translates(dec, y)
        for m, verts in translates:
            ym = [Fraction(v) + mv for v, mv in zip(y, m)]
            assert sorted(w.point for w in verts) == \
                brute_force_vertices(build_polytope(dec, m, y))
            for w in verts:
                shift = [v - sum(w.sides[g] * dirs_p[g][i] for g in w.sides)
                         for i, v in enumerate(ym)]
                basis = by_members[w.basis_members]
                assert w.basis_values == {
                    f: _dot(shift, basis.dual(f)) for f in basis.members}
                want = {f: _dot(ym, dec.b0.dual(f)) for f in dec.b0.members}
                for g, pg in zip(dec.l0, w.point):
                    for x, c in tstar[g].items():
                        want[x] = want.get(x, Fraction(0)) + pg * c
                assert {x: c for x, c in w.exponent.items() if c} == \
                    {x: c for x, c in want.items() if c}
        ctx = EvaluationContext(arr_p, y, "exact")
        seen = []
        real = polytope._vertex_parts

        def recorded(ctx_, dec_, exponent, edges, dens, order):
            seen.append((edges, dens))
            return real(ctx_, dec_, exponent, edges, dens, order)

        # the vertex parts are built when the working order is at least
        # the number of non-integral constants
        order = sum(ctx.constant(f) != int(ctx.constant(f))
                    for f in range(arr.size))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(polytope, "_vertex_parts", recorded)
            genfun_via_polytopes(arr_p, y, order, ctx=ctx)
        assert len(seen) == sum(len(verts) for _, verts in translates)
        for edges, dens in seen:
            assert len(edges) == len(dens) == len(dec.l0)
            for e, den in zip(edges, dens):
                lin = {}
                for g, eg in zip(dec.l0, e):
                    for x, c in tstar[g].items():
                        lin[x] = lin.get(x, Fraction(0)) + eg * c
                want = ctx.combination(lin)
                assert (den.coeffs, den.c) == (want.coeffs, want.c)


@pytest.mark.parametrize("rank", [1, 2])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_witness_data_against_directions(rank, data):
    arr, y = data.draw(_arrangements(rank, (7, 11, 13)))
    assume(not in_singular_locus(y, arr))
    _check_witnesses(arr, y)


@pytest.mark.parametrize("dirs, consts", [
    ([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)],
     [Fraction(1, 2), Fraction(1, 3), Fraction(0), Fraction(1, 5)]),
    ([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, -1)],
     [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1, 3),
      Fraction(-1, 6)]),
], ids=["four_functionals", "five_with_singular_triples"])
def test_witness_data_against_directions_rank3(dirs, consts):
    arr = Arrangement(3, [make_functional(d, c) for d, c in zip(dirs, consts)])
    y = (Fraction(1, 7), Fraction(2, 11), Fraction(3, 13))
    assert not in_singular_locus(y, arr)
    _check_witnesses(arr, y)


def test_simplicity_off_singular_locus():
    arr = slab_instance()
    dec = Decomposition(arr)
    for m in enumerate_m(dec, GENERIC_Y):
        verts = vertices(dec, m, GENERIC_Y)
        poly = build_polytope(dec, m, GENERIC_Y)
        assert witnesses_simple(verts)
        assert is_simple(poly, verts)
        for w in verts:
            assert incident_hyperplane_count(poly, w.point) == 2


def test_nonsimple_on_singular_locus():
    arr = slab_instance(a1=Fraction(0), a2=Fraction(0))
    dec = Decomposition(arr)
    y = (Fraction(1, 2), Fraction(0))  # on the span of (1,0) + Z^2
    found_nonsimple = False
    for m in itertools.product(range(-3, 4), repeat=2):
        verts = vertices(dec, m, y)
        if not verts:
            continue
        poly = build_polytope(dec, m, y)
        if not is_simple(poly, verts):
            found_nonsimple = True
    assert found_nonsimple


def test_report_refuses_the_singular_locus_before_any_series(monkeypatch):
    import latticesums.genfun as genfun

    def no_series(*args, **kwargs):
        raise AssertionError("built the direct series")

    monkeypatch.setattr(genfun, "generating_function", no_series)
    monkeypatch.setattr(polytope, "_walk", no_series)
    # on the span of (1,0) + Z^2
    for build in (polytope_report, genfun_via_polytopes):
        with pytest.raises(ValueError, match=r"^y = \(1/2, 0\) lies on the "
                           "singular locus, where the fractional parts jump "
                           "and the polytopes are not all simple; choose a "
                           "shift off it$"):
            build(slab_instance(), (Fraction(1, 2), Fraction(0)), 3)


def test_witness_incidence_structure():
    arr = slab_instance()
    dec = Decomposition(arr)
    for m in enumerate_m(dec, GENERIC_Y):
        for w in vertices(dec, m, GENERIC_Y):
            outside = tuple(sorted(i for i in range(arr.size)
                                   if i not in w.basis_members))
            assert tuple(sorted(g for g, _ in w.incident)) == outside
            # a vertex of the witness (B, A) lies exactly on the
            # hyperplanes labelled (g, a_g) for g outside B
            poly = build_polytope(dec, m, GENERIC_Y)
            for hs in poly.halfspaces:
                val = sum(u * p for u, p in zip(hs.u, w.point))
                if hs.label in w.incident:
                    assert val == hs.v
                else:
                    assert val >= hs.v


def test_unit_square_is_simple():
    one = Fraction(1)
    halfspaces = [
        HalfSpace((0, 0), (one, Fraction(0)), Fraction(0)),
        HalfSpace((0, 1), (-one, Fraction(0)), Fraction(-1)),
        HalfSpace((1, 0), (Fraction(0), one), Fraction(0)),
        HalfSpace((1, 1), (Fraction(0), -one), Fraction(-1)),
    ]
    poly = HPolytope((0, 0), (0, 1), halfspaces)
    pts = brute_force_vertices(poly)
    assert len(pts) == 4
    assert all(incident_hyperplane_count(poly, p) == 2 for p in pts)


def test_index_ratio_identity():
    # |det U| = index(B) / index(B0) for every witness
    arr = Arrangement(2, [make_functional((1, 1), Fraction(1, 3)),
                          make_functional((1, -1), Fraction(1, 5)),
                          make_functional((1, 0), Fraction(1, 7)),
                          make_functional((0, 1), Fraction(1, 11))])
    dec = Decomposition(arr)
    by_members = {b.members: b for b in arr.bases}
    checked = 0
    for m in enumerate_m(dec, GENERIC_Y):
        for w in vertices(dec, m, GENERIC_Y):
            _, U = witness_matrix(dec, w)
            detU = abs(intlinalg.det(U))
            b = by_members[w.basis_members]
            assert detU == Fraction(b.index, dec.b0.index)
            checked += 1
    assert checked > 4


def test_cramer_linear_form_identity():
    # det U(h, t*) / det U = (-1)^{a_h} (t_h - 2 pi i c_h
    #                         - sum_{g in B} (t_g - 2 pi i c_g) <h, g^B>)
    arr = slab_instance()
    y = GENERIC_Y
    ctx = EvaluationContext(arr, y, "exact")
    dec = Decomposition(arr)
    tstar = _tstar(dec)
    by_members = {b.members: b for b in arr.bases}
    checked = 0
    for m in enumerate_m(dec, y):
        for w in vertices(dec, m, y):
            outside, U = witness_matrix(dec, w)
            detU = intlinalg.det(U)
            n = len(outside)
            for col, h in enumerate(outside):
                # expand det U(col <- t*) into sum of t*_g times cofactors
                lin_total = {}
                aq_total = Fraction(0)
                for rowi, g in enumerate(dec.l0):
                    minor = [[U[r][c] for c in range(n) if c != col]
                             for r in range(n) if r != rowi]
                    cof = (-1) ** (rowi + col) * \
                        (intlinalg.det(minor) if minor else Fraction(1))
                    if cof == 0:
                        continue
                    lin = tstar[g]
                    aq = ctx.combination(lin).c
                    for x, cc in lin.items():
                        lin_total[x] = lin_total.get(x, Fraction(0)) + cof * cc
                    aq_total += cof * aq
                lin_total = {x: c / detU for x, c in lin_total.items() if c}
                aq_total = aq_total / detU
                # right-hand side
                b = by_members[w.basis_members]
                sgn = (-1) ** w.sides[h]
                rhs_lin = {h: Fraction(sgn)}
                rhs_aq = sgn * ctx.constant(h)
                hdir = arr.functionals[h].direction
                for g in b.members:
                    coef = sum(Fraction(d) * e
                               for d, e in zip(hdir, b.dual(g)))
                    if coef:
                        rhs_lin[g] = rhs_lin.get(g, Fraction(0)) - sgn * coef
                    rhs_aq -= sgn * ctx.constant(g) * coef
                assert lin_total == rhs_lin
                assert aq_total == rhs_aq
                checked += 1
    assert checked > 8


def test_vertex_exponent_identity():
    # sum_{f in B0}(t_f - 2 pi i c_f)<y+m, f^B0> + t* . p equals
    # sum_{g not in B} (t_g - 2 pi i c_g) a_g
    #   + sum_{f in B} (t_f - 2 pi i c_f) <y + m - sum a_g g, f^B>
    arr = slab_instance()
    y = GENERIC_Y
    dec = Decomposition(arr)
    tstar = _tstar(dec)
    for m in enumerate_m(dec, y):
        for w in vertices(dec, m, y):
            coeff = {}
            for f in dec.b0.members:
                coeff[f] = sum((yv + mv) * d for yv, mv, d in
                               zip(y, m, dec.b0.dual(f)))
            for g, pv in zip(dec.l0, w.point):
                if pv == 0:
                    continue
                lin = tstar[g]
                for x, c in lin.items():
                    coeff[x] = coeff.get(x, Fraction(0)) + pv * c
            rhs = {}
            for g in range(arr.size):
                if g not in w.basis_members:
                    rhs[g] = Fraction(w.sides[g])
                else:
                    rhs[g] = w.basis_values[g]
            coeff = {x: c for x, c in coeff.items() if c}
            rhs = {x: c for x, c in rhs.items() if c}
            assert coeff == rhs


def _interval_vertices():
    return [VertexWitness((), {}, (Fraction(0),), {}, ((0, 0),)),
            VertexWitness((), {}, (Fraction(1),), {}, ((0, 1),))]


def test_exp_integral_interval():
    t = CTX.mpf(7) / 10
    got = exp_integral_simple(_interval_vertices(), [t], CTX)
    want = (CTX.exp(t) - 1) / t
    assert abs(got - want) < 1e-35


def test_exp_integral_unit_square_product():
    pts = {(0, 0): ((0, 0), (1, 0)), (1, 0): ((0, 1), (1, 0)),
           (0, 1): ((0, 0), (1, 1)), (1, 1): ((0, 1), (1, 1))}
    verts = [VertexWitness((), {}, (Fraction(p[0]), Fraction(p[1])), {}, inc)
             for p, inc in pts.items()]
    s, t = CTX.mpf(1) / 3, -CTX.mpf(5) / 7
    got = exp_integral_simple(verts, [s, t], CTX)
    want = (CTX.exp(s) - 1) / s * (CTX.exp(t) - 1) / t
    assert abs(got - want) < 1e-35


def test_exp_integral_simplex_vs_quadrature():
    v0 = (Fraction(0), Fraction(0), Fraction(0))
    v1 = (Fraction(1), Fraction(0), Fraction(0))
    v2 = (Fraction(1, 3), Fraction(1, 2), Fraction(0))
    v3 = (Fraction(1, 5), Fraction(1, 7), Fraction(3, 4))
    pts = [v0, v1, v2, v3]
    verts = [VertexWitness((), {}, p,
                           {}, tuple((f, 0) for f in range(4) if f != i))
             for i, p in enumerate(pts)]
    a = [CTX.mpf(3) / 7, -CTX.mpf(2) / 5, CTX.mpf(1) / 3]
    got = exp_integral_simple(verts, a, CTX)
    U = [[pts[j + 1][i] - v0[i] for j in range(3)] for i in range(3)]
    detU = abs(intlinalg.det(U))
    fU = [[CTX.mpf(x.numerator) / x.denominator for x in row] for row in U]
    c = [sum(a[i] * fU[i][j] for i in range(3)) for j in range(3)]

    def inner(u1, u2):
        h = 1 - u1 - u2
        return CTX.exp(c[0] * u1 + c[1] * u2) * (CTX.exp(c[2] * h) - 1) / c[2]

    want = CTX.quad(lambda u1: CTX.quad(lambda u2: inner(u1, u2),
                                        [0, 1 - u1]), [0, 1])
    want = want * CTX.mpf(detU.numerator) / detU.denominator
    assert abs(got - want) < 1e-20


def test_exp_integral_vertex_order_invariance():
    verts = _interval_vertices()
    a = [CTX.mpf(1) / 3]
    assert abs(exp_integral_simple(verts, a, CTX)
               - exp_integral_simple(verts[::-1], a, CTX)) < 1e-38


def test_exp_integral_degenerate_exponent():
    with pytest.raises(ZeroDivisionError):
        exp_integral_simple(_interval_vertices(), [CTX.mpf(0)], CTX)


def test_reconstruction_equals_direct_small_cases(generic_y2):
    cases = [
        (hurwitz_a1(Fraction(1, 2)), (Fraction(1, 3),), 6),
        (a2_directions(), generic_y2, 4),
        (triangle(Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)),
         generic_y2, 3),
    ]
    for arr, y, order in cases:
        ctx = EvaluationContext(arr, y, "exact")
        F1 = generating_function(arr, y, order, ctx=ctx)
        F2 = genfun_via_polytopes(arr, y, order, ctx=ctx)
        exps = set(F1.terms) | set(F2.terms)
        assert all(F1.coefficient(e) == F2.coefficient(e) for e in exps)


def test_vertex_unit_edges_are_one_unit_product(generic_y2, monkeypatch):
    # a vertex's numerator, its exponential and all of its non-singular
    # edge denominators (each at power one), is the parts of one unit
    # product, also for a vertex with no unit edge, and no series product;
    # the vertices with no singular edge, of every translate, are lifted
    # in one call, and each vertex with one on its own, over its singular
    # edge denominators; the cases meet vertices with zero, one and two
    # unit edges
    products, muls, units_seen, lifts, built, divided = \
        [], [], set(), [], [], []
    real_product = polytope.unit_parts
    real_vertex = polytope._vertex_parts
    real_lift = polytope.lift_units
    real_sum = polytope.sum_rational_forms
    real_mul = TruncatedSeries.__mul__

    def counted_product(ring, factors, vars, trunc, exponent=None, scale=1):
        products.append(([k for _, k in factors], exponent is not None))
        return real_product(ring, factors, vars, trunc, exponent, scale)

    def counted_vertex(ctx, dec, exponent, edges, dens, order):
        products.clear()
        muls.clear()
        monkeypatch.setattr(TruncatedSeries, "__mul__", counted_mul)
        parts = real_vertex(ctx, dec, exponent, edges, dens, order)
        monkeypatch.setattr(TruncatedSeries, "__mul__", real_mul)
        units = sum(not d.singular for d in dens)
        assert products == [([1] * units, True)]
        assert muls == []
        assert isinstance(parts, UnitParts)
        units_seen.add(units)
        built.append((parts, len(dens) - units))
        return parts

    def counted_mul(a, b):
        muls.append((a, b))
        return real_mul(a, b)

    def counted_lift(ring, vars, trunc, parts):
        lifts.append([id(p) for p in parts])
        return real_lift(ring, vars, trunc, parts)

    def counted_sum(forms):
        divided.extend(len(f.denominators) for f in forms)
        return real_sum(forms)

    monkeypatch.setattr(polytope, "unit_parts", counted_product)
    monkeypatch.setattr(polytope, "_vertex_parts", counted_vertex)
    monkeypatch.setattr(polytope, "lift_units", counted_lift)
    monkeypatch.setattr(polytope, "sum_rational_forms", counted_sum)
    for arr in _unit_edge_cases(Fraction(1, 2), Fraction(1, 3)):
        built.clear()
        lifts.clear()
        divided.clear()
        genfun_via_polytopes(arr, generic_y2, 3)
        plain = [id(p) for p, singular in built if not singular]
        alone = [[id(p)] for p, singular in built if singular]
        assert sorted(lifts) == sorted(alone + [plain])
        assert sorted(divided) == sorted(s for _, s in built if s)
    assert units_seen == {0, 1, 2}


def _unit_edge_cases(a, b):
    """Two arrangements whose vertices have zero, one and two unit edges:
    directions e1, e2, (1,1), (1,2) with constants 0, b, 0, b, and the
    triangle e1, e2, (1,1) with the singular constants a, b, a + b."""
    return [Arrangement(2, [make_functional(d, c) for d, c in zip(
                ((1, 0), (0, 1), (1, 1), (1, 2)), (0, b, 0, b))]),
            Arrangement(2, [make_functional(d, c) for d, c in zip(
                ((1, 0), (0, 1), (1, 1)), (a, b, a + b))])]


@pytest.mark.parametrize("mode, a, b", [
    ("exact", Fraction(1, 2), Fraction(1, 3)),
    ("numeric", GaussianRational(Fraction(1, 2), Fraction(1, 7)),
     GaussianRational(Fraction(1, 3), Fraction(-1, 5)))])
def test_vertex_numerator_matches_reference(mode, a, b, generic_y2,
                                            monkeypatch):
    # each vertex's parts, lifted on their own, are the closed-form
    # exponential of its exponent times the generic series inverse of
    # every unit edge denominator: equal in exact mode, and within 2^-120
    # relative at 128 bits in numeric mode, where the constants are
    # Gaussian; a misplaced root of unity or power of 2 pi i moves its
    # coefficients.  The vertices have zero, one and two unit edges.
    calls = []
    real_product = polytope.unit_parts

    def recorded(ring, factors, vars, trunc, exponent=None, scale=1):
        out = real_product(ring, factors, vars, trunc, exponent, scale)
        calls.append((ring, factors, vars, trunc, exponent, scale, out))
        return out

    monkeypatch.setattr(polytope, "unit_parts", recorded)
    for arr in _unit_edge_cases(a, b):
        genfun_via_polytopes(arr, generic_y2, 3, mode=mode)
    assert {len(factors) for _, factors, *_ in calls} == {0, 1, 2}
    # some vertex roots are not 1
    assert any(not isinstance(call[4].c, Fraction) or call[4].c.denominator
               > 1 for call in calls)
    # the weight |det| / index of some vertices is not 1
    assert any(call[5] != 1 for call in calls)
    for ring, factors, vars, trunc, exponent, scale, parts in calls:
        out = lift_units(ring, vars, trunc, [parts])
        want = form_exp(exponent, ring, vars, trunc)
        for form, k in factors:
            assert k == 1
            want = want * unit_inverse(ring, vars, trunc, form)
        want = want.scalar_mul(ring.from_fraction(scale))
        if ring.exact:
            assert out.terms == want.terms
            continue
        assert set(out.terms) == set(want.terms)
        for e, w in want.terms.items():
            assert abs(out.terms[e] - w) <= 2.0 ** -120 * abs(w)


@pytest.mark.parametrize("arr,order", [
    (a2_directions(), 3),
    (triangle(Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)), 3),
    (triangle(Fraction(1, 3), Fraction(1, 5), Fraction(7, 15)), 3),
    # every constant non-integral, with a singular triple: the vertex sums
    # run three degrees below the prefactor prod t_f
    (triangle(Fraction(1, 2), Fraction(1, 3), Fraction(5, 6)), 5),
    # `order` below the three t_f of the prefactor: both series are zero
    (triangle(Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)), 2),
], ids=["a2_directions", "triangle_1_2", "triangle_1_3",
        "triangle_nonintegral", "order_below_prefactor"])
def test_reconstruction_every_decomposition(arr, order, generic_y2):
    # the reconstruction decomposes at the first basis; permuting the
    # functionals moves that basis over every basis of the arrangement
    firsts = set()
    for perm in itertools.permutations(range(arr.size)):
        arr_p = permuted(arr, perm)
        firsts.add(tuple(sorted(perm[i] for i in arr_p.bases[0].members)))
        ctx = EvaluationContext(arr_p, generic_y2, "exact")
        F1 = generating_function(arr_p, generic_y2, order, ctx=ctx)
        F2 = genfun_via_polytopes(arr_p, generic_y2, order, ctx=ctx)
        assert F2.trunc.total == order
        exps = set(F1.terms) | set(F2.terms)
        assert all(F1.coefficient(e) == F2.coefficient(e) for e in exps)
    assert firsts == {b.members for b in arr.bases}


def test_reconstruction_rejects_singular_y():
    with pytest.raises(ValueError, match=r"^y = \(0\) lies on the singular "
                       "locus"):
        genfun_via_polytopes(hurwitz_a1(1), (Fraction(0),), 3)


def test_reconstruction_numeric_mode(generic_y2):
    arr = a2_directions()
    ctx = EvaluationContext(arr, generic_y2, "numeric", precision=128)
    F1 = generating_function(arr, generic_y2, 3, mode="numeric",
                             precision=128, ctx=ctx)
    F2 = genfun_via_polytopes(arr, generic_y2, 3, mode="numeric",
                              precision=128, ctx=ctx)
    for e in set(F1.terms) | set(F2.terms):
        assert abs(complex(F1.coefficient(e)) - complex(F2.coefficient(e))) \
            < 2.0 ** (-64)


def test_polytope_report(generic_y2):
    rep = polytope_report(a2_directions(), generic_y2, 3)
    assert rep["max_discrepancy"] == "0 (exact)"
    assert rep["m_count"] == len(rep["per_m"])
    assert all(row["simple"] for row in rep["per_m"])


def test_numeric_discrepancy_is_taken_below_double_precision(monkeypatch):
    # a relative error of 1e-18 in the largest coefficient of the
    # reconstruction is above the 128-bit gate 2^-64 and must show in
    # full: the difference is taken in the ring, not in doubles
    arr = triangle(Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))
    y = (Fraction(1, 7), Fraction(2, 11))
    rep = polytope_report(arr, y, 4, mode="numeric")
    assert rep["max_discrepancy"] < 2.0 ** -100
    shifts = []
    scaled = largest_coefficient_scaled(polytope.genfun_via_polytopes,
                                        Fraction(1, 10 ** 18), shifts)
    monkeypatch.setattr(polytope, "genfun_via_polytopes", scaled)
    rep = polytope_report(arr, y, 4, mode="numeric")
    assert rep["max_discrepancy"] > 2.0 ** -64
    assert rep["max_discrepancy"] == pytest.approx(shifts[0], rel=1e-6)
