from fractions import Fraction

import pytest

from latticesums.errors import RankDrop
from latticesums.families import a2_directions, hurwitz_a1, triangle
from latticesums.genfun import EvaluationContext
from latticesums.hierarchy import (_build_states, apply_Dg_summand,
                                   check_hierarchy)
from latticesums.lattice import Arrangement, make_functional
from latticesums.series import sum_rational_forms


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


def test_report_counts_eigen_checks(a1_alpha1, monkeypatch):
    import latticesums.hierarchy as hierarchy
    real = hierarchy.apply_Dg_summand
    compared = []

    def counting(ctx, state, g, order):
        new_state, disc = real(ctx, state, g, order)
        if new_state is not None:
            compared.append(g)
        return new_state, disc

    monkeypatch.setattr(hierarchy, "apply_Dg_summand", counting)
    rep = check_hierarchy(a1_alpha1, [0, 2], (Fraction(0),), 4)
    assert rep["eigen_checks"] > 0
    assert rep["eigen_checks"] == len(compared)


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
    states = _build_states(ctx, 4)
    g = 2
    for st in states:
        new_state, _ = apply_Dg_summand(ctx, st, g, 4)
        if g in ctx.arr.bases[st.bidx].members:
            assert new_state is None
        else:
            assert new_state is not None
            # the eigenvalue route ran the internal equality assertion


def test_operator_commutativity(generic_y2):
    arr = Arrangement(2, [make_functional((1, 0), 0),
                          make_functional((0, 1), 0),
                          make_functional((1, 1), Fraction(1, 3)),
                          make_functional((1, -1), Fraction(1, 5))])
    ctx = EvaluationContext(arr, generic_y2, "exact")
    order = 6

    def apply_sequence(seq):
        states = _build_states(ctx, order)
        for g in seq:
            nxt = []
            for st in states:
                ns, _ = apply_Dg_summand(ctx, st, g, order)
                if ns is not None:
                    nxt.append(ns)
            states = nxt
        return sum_rational_forms([st.to_rational_form() for st in states])

    f23 = apply_sequence([2, 3])
    f32 = apply_sequence([3, 2])
    exps = set(f23.terms) | set(f32.terms)
    assert all(f23.coefficient(e) == f32.coefficient(e) for e in exps)


def test_variable_disappears(generic_y2):
    arr = a2_directions()
    ctx = EvaluationContext(arr, generic_y2, "exact")
    order = 5
    states = _build_states(ctx, order)
    nxt = []
    for st in states:
        ns, _ = apply_Dg_summand(ctx, st, 2, order)
        if ns is not None:
            nxt.append(ns)
    total = sum_rational_forms([st.to_rational_form() for st in nxt])
    assert all(e[2] == 0 for e in total.terms)


def test_numeric_mode(generic_y2):
    rep = check_hierarchy(a2_directions(), [0, 1], generic_y2, 3,
                          mode="numeric", precision=96)
    assert rep["max_discrepancy"] < 2.0 ** (-48)
    assert max(rep["eigen_discrepancies"]) < 2.0 ** (-48)


def test_singular_point_uses_one_sided_branch(a1_alpha1):
    # y = 0 sits on the singular locus; the phi-branched fractional parts
    # realize the one-sided limit, and the identity still holds exactly
    rep0 = check_hierarchy(a1_alpha1, [0, 2], (Fraction(0),), 4)
    assert rep0["max_discrepancy"] == 0
    # evaluating at a small positive shift along phi gives the same verdict
    reps = check_hierarchy(a1_alpha1, [0, 2], (Fraction(1, 10**6),), 4)
    assert reps["max_discrepancy"] == 0
