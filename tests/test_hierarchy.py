import itertools
from fractions import Fraction

import pytest

import latticesums.hierarchy as hierarchy
from latticesums.errors import RankDrop
from latticesums.families import a2_directions, triangle
from latticesums.genfun import (EvaluationContext, _dead_unit, build_summands,
                                generating_function)
from latticesums.hierarchy import apply_Dg_summand, check_hierarchy
from latticesums.lattice import Arrangement, make_functional
from latticesums.series import (LinearForm, RationalForm, Truncation,
                                divide_exact, sum_rational_forms)
from reference import largest_coefficient_scaled, lift, summand_rational_form


def _states(ctx, order):
    """Every summand as the (basis index, rational form) pair that the
    removal operators act on."""
    return [(s.bidx, summand_rational_form(ctx, s, Truncation(order)))
            for s in build_summands(ctx)]


def _remove(ctx, states, g, order):
    states = [apply_Dg_summand(ctx, st, g, order) for st in states]
    return [st for st in states if st is not None]


def test_remove_each_functional_rank1(a1_alpha1):
    for removed in range(3):
        keep = [i for i in range(3) if i != removed]
        rep = check_hierarchy(a1_alpha1, keep, (Fraction(0),), 5)
        assert rep["max_discrepancy"] == 0
        assert rep["stray_variable_terms"] == 0


def test_remove_third_functional_triangle(triangle_rational, generic_y2):
    rep = check_hierarchy(triangle_rational, [0, 1], generic_y2, 4)
    assert rep["max_discrepancy"] == 0


def test_empty_removal_is_rejected(a1_alpha1):
    # removing nothing would check nothing
    with pytest.raises(ValueError, match="nothing to remove"):
        check_hierarchy(a1_alpha1, [0, 1, 2], (Fraction(0),), 4)


def test_unknown_or_repeated_kept_functional_rejected(a1_alpha1):
    with pytest.raises(ValueError, match="no functionals"):
        check_hierarchy(a1_alpha1, [0, 9], (Fraction(0),), 4)
    with pytest.raises(ValueError, match="twice"):
        check_hierarchy(a1_alpha1, [0, 0], (Fraction(0),), 4)


def test_double_removal(generic_y2):
    arr = Arrangement(2, [make_functional((1, 0), 0),
                          make_functional((0, 1), 0),
                          make_functional((1, 1), Fraction(1, 3)),
                          make_functional((1, -1), Fraction(1, 5))])
    rep = check_hierarchy(arr, [0, 1], generic_y2, 3)
    assert rep["max_discrepancy"] == 0


def test_degenerate_arrangement_removal(generic_y2):
    rep = check_hierarchy(a2_directions(), [0, 1], generic_y2, 4)
    assert rep["max_discrepancy"] == 0


def test_rank_drop_rejected(triangle_rational, generic_y2):
    with pytest.raises(RankDrop):
        check_hierarchy(triangle_rational, [1], generic_y2, 3)


def test_operator_annihilates_own_basis_summands(generic_y2):
    arr = a2_directions()
    ctx = EvaluationContext(arr, generic_y2, "exact")
    g = 2
    tg = LinearForm({"t2": Fraction(1)})
    for st in _states(ctx, 4):
        new = apply_Dg_summand(ctx, st, g, 4)
        if g in ctx.arr.bases[st[0]].members:
            assert new is None
            continue
        bidx, form = new
        assert bidx == st[0]
        assert [d.key for d in form.denominators] == \
            [d.key for d in st[1].denominators] + [tg.key]
        # the operator strips the summand's factor t_g: the new numerator
        # divides exactly by t_g
        divide_exact(form.numerator, tg)


def test_operator_commutativity(generic_y2):
    arr = Arrangement(2, [make_functional((1, 0), 0),
                          make_functional((0, 1), 0),
                          make_functional((1, 1), Fraction(1, 3)),
                          make_functional((1, -1), Fraction(1, 5))])
    ctx = EvaluationContext(arr, generic_y2, "exact")
    order = 6

    def apply_sequence(seq):
        states = _states(ctx, order)
        for g in seq:
            states = _remove(ctx, states, g, order)
        return sum_rational_forms([form for _, form in states])

    f23 = apply_sequence([2, 3])
    f32 = apply_sequence([3, 2])
    exps = set(f23.terms) | set(f32.terms)
    assert all(f23.coefficient(e) == f32.coefficient(e) for e in exps)


def test_variable_disappears(generic_y2):
    arr = a2_directions()
    ctx = EvaluationContext(arr, generic_y2, "exact")
    order = 5
    states = _remove(ctx, _states(ctx, order), 2, order)
    total = sum_rational_forms([form for _, form in states])
    assert all(e[2] == 0 for e in total.terms)


def test_numeric_mode(generic_y2):
    rep = check_hierarchy(a2_directions(), [0, 1], generic_y2, 3,
                          mode="numeric", precision=96)
    assert rep["max_discrepancy"] < 2.0 ** (-48)


def test_numeric_discrepancy_is_taken_below_double_precision(monkeypatch):
    # a relative error of 1e-18 in the largest coefficient of the
    # sub-arrangement's series is above the 128-bit gate 2^-64 and must
    # show in full: the difference is taken in the ring, not in doubles
    arr = triangle(Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))
    y = (Fraction(1, 7), Fraction(2, 11))
    rep = check_hierarchy(arr, [0, 1], y, 4, mode="numeric")
    assert rep["max_discrepancy"] < 2.0 ** -100
    shifts = []
    scaled = largest_coefficient_scaled(hierarchy.generating_function,
                                        Fraction(1, 10 ** 18), shifts)
    monkeypatch.setattr(hierarchy, "generating_function", scaled)
    rep = check_hierarchy(arr, [0, 1], y, 4, mode="numeric")
    assert rep["max_discrepancy"] > 2.0 ** -64
    assert rep["max_discrepancy"] == pytest.approx(shifts[0], rel=1e-6)


def _negated(real):
    def apply(ctx, state, g, order):
        new = real(ctx, state, g, order)
        if new is None:
            return None
        bidx, form = new
        return bidx, RationalForm(-form.numerator, form.denominators)
    return apply


def _t_g_dropped(real):
    def apply(ctx, state, g, order):
        new = real(ctx, state, g, order)
        if new is None:
            return None
        bidx, form = new
        return bidx, RationalForm(form.numerator, form.denominators[:-1])
    return apply


@pytest.mark.parametrize("mode", ["exact", "numeric"])
@pytest.mark.parametrize("arr", [a2_directions(),
                                 triangle(Fraction(1, 3), Fraction(1, 5),
                                          Fraction(7, 15))],
                         ids=["a2_directions", "triangle"])
@pytest.mark.parametrize("mutation", [_negated, _t_g_dropped])
def test_mutated_operator_fails_check(mutation, arr, mode, generic_y2,
                                      monkeypatch):
    # a wrong sign of den_g, or a t_g left out of the denominators, must
    # not land on the sub-arrangement's generating function
    monkeypatch.setattr(hierarchy, "apply_Dg_summand",
                        mutation(hierarchy.apply_Dg_summand))
    rep = check_hierarchy(arr, [0, 1], generic_y2, 3, mode=mode,
                          precision=96)
    if mode == "exact":
        assert rep["max_discrepancy"] == 1
    else:
        assert rep["max_discrepancy"] > 2.0 ** (-48)
    if mutation is _t_g_dropped:
        assert rep["stray_variable_terms"] > 0


def test_singular_point_uses_one_sided_branch(a1_alpha1):
    # y = 0 sits on the singular locus; the phi-branched fractional parts
    # realize the one-sided limit, and the identity still holds exactly
    rep0 = check_hierarchy(a1_alpha1, [0, 2], (Fraction(0),), 4)
    assert rep0["max_discrepancy"] == 0
    # evaluating at a small positive shift along phi gives the same verdict
    reps = check_hierarchy(a1_alpha1, [0, 2], (Fraction(1, 10**6),), 4)
    assert reps["max_discrepancy"] == 0


@pytest.mark.parametrize("mode, discrepancy", [
    ("exact", "0 (exact)"), ("numeric", "2.597500083477869e-40")],
    ids=["exact", "numeric"])
def test_sub_context_shares_the_parent_kernel_tables(mode, discrepancy,
                                                     monkeypatch):
    # the sub-arrangement's context takes the parent's ring, and with it
    # the parent's kernels: each (params, order) is built once per check
    import latticesums.genfun as genfun
    built = []
    real = genfun.kernel_parts

    def counted(ring, params, order, base):
        built.append((params, order))
        return real(ring, params, order, base)

    monkeypatch.setattr(genfun, "kernel_parts", counted)
    arr = triangle(Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))
    rep = check_hierarchy(arr, [0, 1], (Fraction(1, 7), Fraction(1, 11)), 4,
                          mode=mode)
    assert len(built) == len(set(built)) == 2
    assert rep["removed"] == [2] and rep["stray_variable_terms"] == 0
    assert rep["max_discrepancy_str"] == discrepancy


def test_exact_check_builds_one_ring(monkeypatch, generic_y2):
    # the sub-arrangement's context is restricted from the parent's, so
    # it computes no cyclotomic order and builds no ring of its own
    import latticesums.genfun as genfun
    rings = []
    real = genfun.ExactRing

    def counted(N):
        rings.append(N)
        return real(N)

    monkeypatch.setattr(genfun, "ExactRing", counted)
    rep = check_hierarchy(a2_directions(), [0, 1], generic_y2, 3)
    assert rep["max_discrepancy"] == 0
    assert len(rings) == 1


@pytest.mark.parametrize("mode", ["exact", "numeric"])
@pytest.mark.parametrize("keep", [[0, 1], [0, 2], [1, 2, 3]])
def test_restricted_context_matches_a_fresh_one(mode, keep, generic_y2):
    arr = Arrangement(2, [make_functional((1, 0), Fraction(1, 2)),
                          make_functional((0, 1), 0),
                          make_functional((1, 1), Fraction(1, 3)),
                          make_functional((1, -1), Fraction(1, 5))])
    ctx = EvaluationContext(arr, generic_y2, mode)
    sub_ctx = ctx.restricted(keep)
    fresh = EvaluationContext(arr.restricted(keep), generic_y2, mode,
                              phi=ctx.phi)
    assert sub_ctx.ring is ctx.ring and sub_ctx._parts is ctx._parts
    assert sub_ctx.vars == fresh.vars
    assert sub_ctx._constants == fresh._constants
    # the parent keeps its own arrangement fields
    assert ctx.arr is arr and len(ctx.vars) == 4
    got = generating_function(sub_ctx.arr, generic_y2, 4, mode=mode,
                              ctx=sub_ctx)
    want = generating_function(fresh.arr, generic_y2, 4, mode=mode,
                               ctx=fresh)
    # the fresh context's cyclotomic order divides the parent's
    assert got.terms.keys() == want.terms.keys()
    for e, c in want.terms.items():
        assert got.terms[e] == (lift(c, ctx.ring) if mode == "exact" else c)


@pytest.mark.parametrize("mode", ["exact", "numeric"])
@pytest.mark.parametrize("keep", [[0, 1], [0, 2], [1, 2, 3], [2, 3]])
def test_restricted_context_reads_no_entry_of_its_parent(mode, keep,
                                                         generic_y2):
    # the parent reads the fractional part, kernel, den_g and U_g of every
    # basis through order 3, and through order 4 its first basis only, so
    # that the sub-context builds kernels of its own there; a basis or
    # functional index of the sub-arrangement names another basis or
    # functional of the parent, so an entry read from the parent by index
    # would differ from a fresh context's
    arr = Arrangement(2, [make_functional((1, 0), Fraction(1, 2)),
                          make_functional((0, 1), 0),
                          make_functional((1, 1), Fraction(1, 3)),
                          make_functional((1, -1), Fraction(1, 5))])
    ctx = EvaluationContext(arr, generic_y2, mode)

    def reads(c, orders, count=None):
        out = []
        for bidx, b in enumerate(c.arr.bases[:count]):
            for w, m, order in itertools.product(b.coset_reps, b.members,
                                                 orders):
                parts, q = c.kernel(bidx, w, m, order)
                out.append((c.yhat(bidx, w, m), q, {
                    n: lift(a, ctx.ring) if mode == "exact"
                    and c is not ctx else a for n, a in parts.items()}))
            for g, den in c.geometry(bidx).items():
                unit = _dead_unit(c, bidx, g, den)
                out.append((den.coeffs, den.c, unit.coeffs, unit.c))
        return out

    reads(ctx, (3,))
    reads(ctx, (4,), count=1)
    sub = ctx.restricted(keep)
    fresh = EvaluationContext(arr.restricted(keep), generic_y2, mode,
                              phi=ctx.phi)
    got = reads(sub, (3, 4))
    assert sub._parts is ctx._parts
    assert got == reads(fresh, (3, 4))
