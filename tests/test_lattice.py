import itertools
import json
import math
import random
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from latticesums import intlinalg, lattice
from latticesums.families import a2_directions, hurwitz_a1, triangle
from latticesums.lattice import (Arrangement, Functional, GaussianRational,
                                 GenericDirection, choose_phi,
                                 arrangement_from_json, arrangement_to_json,
                                 enumerate_bases, frac_part,
                                 in_singular_locus, make_functional,
                                 on_excluded_hyperplanes)
from reference import coset_character_sum


def test_triangle_has_three_bases(triangle_rational):
    arr = triangle_rational
    assert [b.members for b in arr.bases] == [(0, 1), (0, 2), (1, 2)]
    assert arr.indispensable == ()


def test_single_basis_identity():
    arr = Arrangement(2, [make_functional((1, 0), 0),
                          make_functional((0, 1), 0)])
    (b,) = arr.bases
    assert b.index == 1
    assert b.coset_reps == [(0, 0)]


def test_determinant_two_cosets():
    arr = Arrangement(2, [make_functional((1, 1), 0),
                          make_functional((1, -1), 0)])
    (b,) = arr.bases
    assert b.index == 2
    assert len(b.coset_reps) == 2


def test_dual_basis_identity(triangle_rational):
    arr = triangle_rational
    for b in arr.bases:
        for i, m in enumerate(b.members):
            for j, m2 in enumerate(b.members):
                v = sum(Fraction(d) * e for d, e in
                        zip(arr.functionals[m].direction, b.dual(m2)))
                assert v == (1 if i == j else 0)


def _square_matrices(r):
    row = st.lists(st.integers(-3, 3), min_size=r, max_size=r)
    return st.lists(row, min_size=r, max_size=r)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(_square_matrices))
@example([[1, 1], [1, -1]])
@example([[2, 1], [0, 3]])
@example([[2, 0], [0, 2]])
def test_coset_reps_complete_and_distinct(rows):
    assume(intlinalg.det(rows) != 0)
    r = len(rows)
    arr = Arrangement(r, [make_functional(d, 0) for d in rows])
    (b,) = arr.bases
    # v and w are in one class iff v B^-1 and w B^-1 agree mod 1
    inv = intlinalg.mat_inverse(rows)

    def cls(v):
        return tuple(sum(v[i] * inv[i][j] for i in range(r)) % 1
                     for j in range(r))

    classes = [cls(w) for w in b.coset_reps]
    assert len(classes) == len(set(classes)) == b.index
    # every point of a box meets the class of exactly one representative
    for v in itertools.product(range(-2, 3), repeat=r):
        assert classes.count(cls(v)) == 1


def test_indispensable_examples():
    assert triangle(0, 0, 0).indispensable == ()
    arr = Arrangement(2, [make_functional((1, 0), 0),
                          make_functional((0, 1), 0),
                          make_functional((0, 2), 1)])
    assert arr.indispensable == (0,)
    assert hurwitz_a1(2).indispensable == ()


def test_indispensable_subset_of_every_basis():
    arr = Arrangement(2, [make_functional((1, 0), 0),
                          make_functional((0, 1), 0),
                          make_functional((0, 2), 1)])
    for b in arr.bases:
        assert 0 in b.members


def test_choose_phi_rank1():
    assert choose_phi(hurwitz_a1(1)).phi == (1,)


def test_choose_phi_validates(triangle_rational):
    phi = choose_phi(triangle_rational)
    for b in triangle_rational.bases:
        for m in b.members:
            assert sum(Fraction(p) * d
                       for p, d in zip(phi.phi, b.dual(m))) != 0


def test_choose_phi_rejects_small_M():
    # (1,1) pairs to zero with a dual vector of the fourth direction
    arr = Arrangement(2, [make_functional((1, 0), 0),
                          make_functional((0, 1), 0),
                          make_functional((1, 1), 0),
                          make_functional((1, -1), 0)])
    phi = choose_phi(arr)
    assert phi.phi != (1, 1)
    assert phi.phi == (1, 2)


def test_frac_part_branches():
    arr = Arrangement(1, [make_functional((1,), 0)])
    b = arr.bases[0]
    pos = GenericDirection((1,))
    neg = GenericDirection((-1,))
    assert frac_part((Fraction(3, 10),), (0,), b, 0, pos) == Fraction(3, 10)
    assert frac_part((Fraction(2),), (0,), b, 0, neg) == 1
    assert frac_part((Fraction(2),), (0,), b, 0, pos) == 0
    # {a} = 1 - {-a} off the integers, so both branches agree there
    assert frac_part((Fraction(3, 10),), (0,), b, 0, neg) == Fraction(3, 10)


def test_frac_part_one_sided_limit(triangle_rational):
    arr = triangle_rational
    phi = choose_phi(arr)
    rng = random.Random(7)
    for _ in range(10):
        y = (Fraction(rng.randint(-20, 20), 7),
             Fraction(rng.randint(-20, 20), 11))
        den = 7 * 11
        c = Fraction(1, 10**6 * den)
        for b in arr.bases:
            for m in b.members:
                for w in b.coset_reps:
                    yc = tuple(v + c * p for v, p in zip(y, phi.phi))
                    assert frac_part(yc, w, b, m, phi) == \
                        frac_part(y, w, b, m, phi) \
                        + c * sum(Fraction(p) * d for p, d in
                                  zip(phi.phi, b.dual(m)))


def test_character_orthogonality_random():
    rng = random.Random(11)
    arrs = [Arrangement(2, [make_functional((1, 1), 0),
                            make_functional((1, -1), 0)]),
            Arrangement(2, [make_functional((2, 1), 0),
                            make_functional((0, 3), 0)]),
            a2_directions()]
    for arr in arrs:
        for b in arr.bases:
            inv_rows = [b.dual(m) for m in b.members]
            for _ in range(20):
                coeffs = [rng.randint(-3, 3) for _ in b.members]
                lam = tuple(sum(c * inv_rows[i][j]
                                for i, c in enumerate(coeffs))
                            for j in range(arr.rank))
                val = coset_character_sum(b, lam)
                integral = all(Fraction(x).denominator == 1 for x in lam)
                assert val == (1 if integral else 0)


def test_character_sum_examples():
    arr = Arrangement(2, [make_functional((1, 1), 0),
                          make_functional((1, -1), 0)])
    (b,) = arr.bases
    assert coset_character_sum(b, (Fraction(1), Fraction(0))) == 1
    assert coset_character_sum(b, (Fraction(1, 2), Fraction(1, 2))) == 0
    with pytest.raises(ValueError):
        coset_character_sum(b, (Fraction(1, 3), Fraction(0)))


def test_excluded_hyperplanes():
    arr = Arrangement(2, [make_functional((1, 0), 0),
                          make_functional((0, 1), 0),
                          make_functional((0, 2), 1)])
    assert on_excluded_hyperplanes((Fraction(0), Fraction(0)), arr)
    assert on_excluded_hyperplanes((Fraction(0), Fraction(1, 3)), arr,
                                   subset=[0])
    assert not on_excluded_hyperplanes((Fraction(1, 3), Fraction(1, 7)), arr)
    # empty indispensable set: never excluded
    assert not on_excluded_hyperplanes((Fraction(0), Fraction(0)),
                                       triangle(0, 0, 0))


def _unit_fractions():
    return st.integers(1, 6).flatmap(
        lambda d: st.integers(0, d - 1).map(lambda n: Fraction(n, d)))


@st.composite
def _first_basis_of_index_above_one(draw):
    """A rank-2 arrangement whose first basis (0, 1) has index > 1, its
    other directions multiples of the second, and a shift in [0, 1)^2."""
    entry = st.integers(-2, 2)
    d0 = draw(st.tuples(entry, entry))
    d1 = draw(st.tuples(entry, entry))
    assume(abs(d0[0] * d1[1] - d0[1] * d1[0]) > 1)
    mults = draw(st.lists(st.sampled_from([-2, -1, 1, 2]), max_size=2))
    dirs = [d0, d1] + [(m * d1[0], m * d1[1]) for m in mults]
    arr = Arrangement(2, [make_functional(d, 0) for d in dirs])
    return arr, draw(st.tuples(_unit_fractions(), _unit_fractions()))


@settings(max_examples=60, deadline=None)
@given(_first_basis_of_index_above_one())
def test_predicates_match_their_definitions_on_non_integral_duals(case):
    arr, y = case
    b = arr.bases[0]
    assert b.members == (0, 1) and b.index > 1 and 0 in arr.indispensable
    # y is excluded for f iff <y + w, f^B> is an integer for some integer
    # w; index * f^B is integral, so w in [0, index)^2 meets every value
    box = list(itertools.product(range(b.index), repeat=2))
    for f in arr.indispensable:
        dual = b.dual(f)
        want = any((sum((yi + wi) * d for yi, wi, d in zip(y, w, dual))
                    ).denominator == 1 for w in box)
        assert on_excluded_hyperplanes(y, arr, [f]) == want
        # y moved along the direction of f onto <y, f^B> = 0
        shift = sum(yi * d for yi, d in zip(y, dual))
        direction = arr.functionals[f].direction
        on = [yi - shift * x for yi, x in zip(y, direction)]
        assert on_excluded_hyperplanes(on, arr, [f])
    # y is on the locus iff <y + w, n> = 0 for some integer w and some
    # normal n of a direction, taken here as it is, not made primitive;
    # with |n_i| <= 4 and y in [0, 1)^2 a solution has |w_i| <= 20
    box = list(itertools.product(range(-20, 21), repeat=2))
    normals = {(-d[1], d[0]) for d in (f.direction for f in arr.functionals)}
    # in integers: L (y + w) with L the common denominator of y
    L = math.lcm(*(yi.denominator for yi in y))
    Ly = [int(yi * L) for yi in y]
    want = any(sum((a + L * wi) * ni for a, wi, ni in zip(Ly, w, n)) == 0
               for n in normals for w in box)
    assert in_singular_locus(y, arr) == want


def test_float_points_are_read_at_their_binary_value():
    # 1e-13 is within 1e-12 of the excluded hyperplane y_0 in Z and of the
    # singular locus, but not on them; 1.0 and 2.0 are exactly on them
    arr = Arrangement(2, [make_functional((1, 0), 0),
                          make_functional((0, 1), 0),
                          make_functional((0, 2), 1)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not on_excluded_hyperplanes((1e-13, 0.3), arr)
        assert not in_singular_locus((1e-13, 0.3), arr)
        assert on_excluded_hyperplanes((1.0, 0.3), arr)
        assert in_singular_locus((0.3, 2.0), arr)


@pytest.mark.parametrize("y", [(Fraction(1, 7),),
                               (Fraction(1, 7), Fraction(2, 11), Fraction(0))])
def test_predicates_refuse_a_shift_of_the_wrong_length(y):
    # both zip y against their normals or duals, which would read a
    # short y as it is: (1/7,) on the singular locus of this arrangement
    arr = Arrangement(2, [make_functional((1, 0), 0),
                          make_functional((0, 1), 0),
                          make_functional((0, 2), 1)])
    with pytest.raises(ValueError, match="one entry per dimension"):
        in_singular_locus(y, arr)
    with pytest.raises(ValueError, match="one entry per dimension"):
        on_excluded_hyperplanes(y, arr)


def test_excluded_requires_indispensable(triangle_rational):
    with pytest.raises(ValueError):
        on_excluded_hyperplanes((Fraction(0), Fraction(0)),
                                triangle_rational, subset=[0])


def test_json_roundtrip(triangle_rational):
    blob = json.dumps(arrangement_to_json(triangle_rational))
    arr = arrangement_from_json(blob)
    assert [f.direction for f in arr.functionals] == \
        [f.direction for f in triangle_rational.functionals]
    assert [f.constant for f in arr.functionals] == \
        [f.constant for f in triangle_rational.functionals]


def test_json_gaussian_and_float_constants():
    blob = {"rank": 1, "functionals": [
        {"direction": [1], "constant": {"re": "1/2", "im": "1/3"}},
        {"direction": [1], "constant": {"re": 0.25, "im": 0.0}},
        {"direction": [1], "constant": 3},
    ]}
    arr = arrangement_from_json(json.dumps(blob))
    assert isinstance(arr.functionals[0].constant, GaussianRational)
    assert isinstance(arr.functionals[1].constant, complex)
    assert arr.functionals[2].rational_constant() == 3


def test_json_roundtrip_keeps_gaussian_and_float_constants():
    arr = Arrangement(1, [make_functional((1,), (Fraction(1, 2),
                                                 Fraction(-1, 3))),
                          make_functional((2,), 0.1),
                          make_functional((1,), complex(0.25, -1.5)),
                          make_functional((3,), Fraction(-7, 4))])
    blob = json.dumps(arrangement_to_json(arr))
    back = arrangement_from_json(blob)
    assert [f.direction for f in back.functionals] == [(1,), (2,), (1,), (3,)]
    assert [f.constant for f in back.functionals] == \
        [f.constant for f in arr.functionals]
    assert [type(f.constant) for f in back.functionals] == \
        [GaussianRational, complex, complex, Fraction]
    assert json.dumps(arrangement_to_json(back)) == blob


@pytest.mark.parametrize("entry", [2.5, 1.0, True, "1", Fraction(1)])
def test_direction_entries_must_be_integers(entry):
    # int() would read 2.5 as 2 and sum over another arrangement
    with pytest.raises(ValueError, match="integers"):
        Functional((entry, 1), Fraction(0))
    with pytest.raises(ValueError, match="integers"):
        make_functional((entry, 1), 0)
    blob = {"rank": 2, "functionals": [
        {"direction": [entry, 1], "constant": 0},
        {"direction": [0, 1], "constant": 0}]}
    with pytest.raises(ValueError, match="integers"):
        arrangement_from_json(blob)


def test_direction_entries_accept_integers():
    f = make_functional([np.int64(2), -1], 0)
    assert f.direction == (2, -1)
    assert all(type(x) is int for x in f.direction)


def test_make_functional_reads_a_short_real_float_exactly():
    half = make_functional((1,), 0.5)
    assert half.constant == Fraction(1, 2)
    assert isinstance(half.constant, Fraction)
    # 0.1 has no short binary fraction: it stays a numeric-only constant
    tenth = make_functional((1,), 0.1)
    assert tenth.constant == complex(0.1)
    assert isinstance(tenth.constant, complex)


def test_gaussian_rational_as_a_complex():
    z = GaussianRational(Fraction(1, 2), Fraction(-1, 3))
    assert complex(z) == complex(0.5) + 1j * complex(Fraction(-1, 3))
    assert complex(z) == complex(0.5, -1 / 3)
    assert str(z) == str(complex(0.5, -1 / 3))
    assert complex(GaussianRational(Fraction(3), Fraction(0))) == 3


def test_duplicate_functionals_are_distinct_slots():
    arr = Arrangement(1, [make_functional((1,), 0),
                          make_functional((1,), 0)])
    assert arr.size == 2
    assert len(arr.bases) == 2


def test_rank_validation():
    with pytest.raises(ValueError):
        Arrangement(2, [make_functional((1, 0), 0)])
    with pytest.raises(ValueError):
        make_functional((0, 0), 1)


def test_arrangement_table_keys_on_rank_and_ordered_directions():
    a, b = triangle(Fraction(1, 2), 0, 0), triangle(0, Fraction(1, 3), 1)
    assert lattice.arrangement_data(a) is lattice.arrangement_data(b)
    assert a.bases is b.bases
    assert a.indispensable is b.indispensable
    assert a.codim1_normals is b.codim1_normals
    swapped = Arrangement(2, list(reversed(a.functionals)))
    assert lattice.arrangement_data(swapped) is not \
        lattice.arrangement_data(a)
    assert len(lattice._arrangement_table) == 2


def test_arrangement_table_evicts_the_least_recently_used(monkeypatch):
    calls = []
    real = lattice.enumerate_bases

    def counted(arr):
        calls.append(arr.rank)
        return real(arr)

    def bases(arr):
        return lattice.arrangement_data(arr).bases

    monkeypatch.setattr(lattice, "enumerate_bases", counted)
    monkeypatch.setattr(lattice, "ARRANGEMENT_TABLE_SIZE", 2)
    one, two = hurwitz_a1(1), triangle(0, 0, 0)
    three = Arrangement(2, a2_directions().functionals[:2])
    first = bases(one)
    bases(two)
    assert bases(hurwitz_a1(2)) is first  # a hit
    bases(three)  # evicts `two`, used longest ago
    assert len(lattice._arrangement_table) == 2
    assert len(calls) == 3
    assert bases(one) is first
    assert len(calls) == 3
    bases(triangle(1, 1, 1))  # `two`, built again
    assert len(calls) == 4


@pytest.mark.parametrize("call, start", [
    (lambda: Arrangement(0, [make_functional((1,), 0)]),
     "rank must be >= 1"),
    (lambda: Arrangement(1, []), "arrangement must be nonempty"),
    (lambda: Arrangement(2, [make_functional((1,), 0)]),
     "direction length must equal the rank"),
    (lambda: arrangement_from_json({"rank": 1, "functionals": 5}),
     "functionals must be a list, got 5"),
], ids=["rank_0", "no_functionals", "short_direction", "functionals_5"])
def test_arrangement_refusals(call, start):
    with pytest.raises(ValueError, match=f"^{re.escape(start)}"):
        call()
