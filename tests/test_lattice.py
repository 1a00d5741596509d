import json
import random
import warnings
from fractions import Fraction

import pytest

from latticesums import lattice
from latticesums.families import a2_directions, hurwitz_a1, triangle
from latticesums.lattice import (Arrangement, GaussianRational,
                                 GenericDirection, choose_phi,
                                 arrangement_from_json, arrangement_to_json,
                                 enumerate_bases, frac_part,
                                 in_singular_locus, make_functional,
                                 on_excluded_hyperplanes)
from reference import coset_character_sum, lattice_contains


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


def test_coset_reps_complete_and_distinct():
    for dirs in [[(1, 1), (1, -1)], [(2, 1), (0, 3)], [(2, 0), (0, 2)]]:
        arr = Arrangement(2, [make_functional(d, 0) for d in dirs])
        (b,) = arr.bases
        assert len(b.coset_reps) == b.index
        reps = b.coset_reps
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                diff = [a - c for a, c in zip(reps[i], reps[j])]
                assert not lattice_contains(b.direction_matrix, diff)


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
    assert arr.functionals[0].exact
    assert not arr.functionals[1].exact
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


def test_make_functional_reads_a_short_real_float_exactly():
    half = make_functional((1,), 0.5)
    assert half.constant == Fraction(1, 2)
    assert isinstance(half.constant, Fraction) and half.exact
    # 0.1 has no short binary fraction: it stays a numeric-only constant
    tenth = make_functional((1,), 0.1)
    assert tenth.constant == complex(0.1)
    assert tenth.exact is False


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
