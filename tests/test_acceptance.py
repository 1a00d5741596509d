"""Acceptance suite: one test per criterion, each printing a PASS line.

Every expected value is pinned here at its stated tolerance; exact-mode
criteria compare canonical scalar strings with zero tolerance.  Runtime
budgets are asserted too (generously below the stated ceilings).
"""

import time
from fractions import Fraction

import pytest
from mpmath.ctx_mp import MPContext

from latticesums.families import a2_directions, hurwitz_a1, hurwitz_a2, \
    triangle
from latticesums.genfun import (EvaluationContext, coefficient,
                                generating_function, lattice_sum_value,
                                zeta_from_S)
from latticesums.hierarchy import check_hierarchy
from latticesums.lattice import Arrangement, make_functional
from latticesums.oracle import convergence_scan
from latticesums.polytope import genfun_via_polytopes
from latticesums.scalar import ExactRing, format_scalar
from reference import later_phi, lift, permuted

CTX = MPContext()
CTX.prec = 160

Y0_1 = (Fraction(0),)
Y0_2 = (Fraction(0), Fraction(0))


def _report(n, label):
    print(f"ACCEPTANCE {n}: PASS - {label}")


def test_criterion_01_basic_exact_values():
    expected = {
        1: "pi^2/2 - 39/8",
        2: "pi^2/32 - 39/512",
        3: "pi^2/162 - 13/1944",
    }
    for alpha, want in expected.items():
        t0 = time.perf_counter()
        rep = lattice_sum_value(hurwitz_a1(alpha), Y0_1, (2, 2, 2))
        dt = time.perf_counter() - t0
        assert format_scalar(rep.value) == want
        assert dt < 10.0
    _report(1, "S((2,2,2),0) exact for shifts 1, 2, 3 (zero tolerance)")


def test_criterion_02_higher_weights_and_zeta():
    rows = [
        (hurwitz_a1(1), (4, 4, 4),
         "pi^4/40 + 35*pi^2/16 - 3075/128"),
        (hurwitz_a1(2), (6, 6, 6),
         "11*pi^6/20643840 + 21*pi^4/2097152 + 3003*pi^2/16777216"
         " - 137067/268435456"),
        (hurwitz_a1(3), (8, 8, 8),
         "43*pi^8/8678218953600 + 367*pi^6/7810397058240"
         " + 581*pi^4/1983592903680 + 46189*pi^2/21422803359744"
         " - 2864587/1028294561267712"),
    ]
    for arr, k, want in rows:
        t0 = time.perf_counter()
        rep = lattice_sum_value(arr, Y0_1, k)
        dt = time.perf_counter() - t0
        assert format_scalar(rep.value) == want
        assert dt < 60.0
    zrows = [
        (hurwitz_a1(1), (2, 2, 2), "pi^2/4 - 39/16"),
        (hurwitz_a1(1), (4, 4, 4), "pi^4/80 + 35*pi^2/32 - 3075/256"),
        (hurwitz_a1(2), (6, 6, 6),
         "11*pi^6/41287680 + 21*pi^4/4194304 + 3003*pi^2/33554432"
         " - 137067/536870912"),
    ]
    for arr, k, want in zrows:
        t0 = time.perf_counter()
        val = zeta_from_S(arr, k, 2)
        dt = time.perf_counter() - t0
        assert format_scalar(val) == want
        assert dt < 60.0
    _report(2, "higher-weight S rows and zeta rows exact (zero tolerance)")


def test_criterion_03_rank_two_family():
    rows = [
        (hurwitz_a2(1), (1, 2, 2, 2, 1, 1, 1, 2, 2),
         "pi^6/1890 + 701*pi^4/2160 - 1841*pi^2/108 + 2822557/20736"),
        (hurwitz_a2(2), (2,) * 9,
         "11*pi^6/15482880 + 4901*pi^4/70778880 - 26747*pi^2/28311552"
         " + 20643217/10871635968"),
        (hurwitz_a2(3), (1, 1, 1, 2, 2, 2, 1, 1, 1),
         "2*pi^4/295245 - 227*pi^2/6377292 + 14183/459165024"),
    ]
    for arr, k, want in rows:
        t0 = time.perf_counter()
        rep = lattice_sum_value(arr, Y0_2, k)
        dt = time.perf_counter() - t0
        assert format_scalar(rep.value) == want
        assert dt < 600.0
    t0 = time.perf_counter()
    zval = zeta_from_S(hurwitz_a2(2), (2,) * 9, 6)
    assert format_scalar(zval) == \
        "11*pi^6/92897280 + 4901*pi^4/424673280 - 26747*pi^2/169869312" \
        " + 20643217/65229815808"
    assert time.perf_counter() - t0 < 600.0
    _report(3, "nine-functional S rows and the rank-two zeta row exact")


def test_criterion_04_oracle_agreement():
    for alpha in (1, 2, 3):
        arr = hurwitz_a1(alpha)
        rep = lattice_sum_value(arr, Y0_1, (2, 2, 2))
        t0 = time.perf_counter()
        rows = convergence_scan(arr, (2, 2, 2), Y0_1,
                                [250, 500, 1000, 2000], precision=96,
                                target=rep.value)
        dt = time.perf_counter() - t0
        errs = [r["err"] for r in rows]
        assert errs[-1] < 1e-3
        assert all(b < a for a, b in zip(errs, errs[1:])), errs
        assert dt < 60.0
    _report(4, "truncated sums within 1e-3 at N=2000, monotone over "
               "{250,500,1000,2000}")


def test_criterion_05_holomorphy_witness():
    # every singular denominator divides out with exactly zero remainder
    arr = a2_directions()
    y = (Fraction(1, 7), Fraction(1, 11))
    F = generating_function(arr, y, 6)  # NonDivisible would raise
    assert F.terms
    # the same must hold at the lattice point via the phi branch
    F0 = generating_function(arr, Y0_2, 6)
    assert F0.terms
    _report(5, "exact division leaves zero remainder through order 6 on "
               "the zero-constant triangle")


def test_criterion_06_polytope_cross_check():
    t0 = time.perf_counter()
    arr_a = triangle(Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))
    y_a = (Fraction(1, 7), Fraction(1, 11))
    ctx = EvaluationContext(arr_a, y_a, "exact")
    f1 = generating_function(arr_a, y_a, 4, ctx=ctx)
    f2 = genfun_via_polytopes(arr_a, y_a, 4, ctx=ctx)
    exps = set(f1.terms) | set(f2.terms)
    assert all(f1.coefficient(e) == f2.coefficient(e) for e in exps)
    assert time.perf_counter() - t0 < 300.0
    t0 = time.perf_counter()
    arr_b = hurwitz_a1(Fraction(1, 2))
    y_b = (Fraction(1, 3),)
    ctx_b = EvaluationContext(arr_b, y_b, "exact")
    g1 = generating_function(arr_b, y_b, 4, ctx=ctx_b)
    g2 = genfun_via_polytopes(arr_b, y_b, 4, ctx=ctx_b)
    exps = set(g1.terms) | set(g2.terms)
    assert all(g1.coefficient(e) == g2.coefficient(e) for e in exps)
    assert time.perf_counter() - t0 < 300.0
    _report(6, "polytope reconstruction equals the direct series exactly "
               "through order 4 on both fixtures")


def test_criterion_07_hierarchy_identity():
    arr = hurwitz_a1(1)
    for removed in range(3):
        keep = [i for i in range(3) if i != removed]
        rep = check_hierarchy(arr, keep, Y0_1, 5)
        assert rep["max_discrepancy"] == 0
        assert rep["stray_variable_terms"] == 0
    arr31 = triangle(Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))
    rep = check_hierarchy(arr31, [0, 1], (Fraction(1, 7), Fraction(1, 11)), 4)
    assert rep["max_discrepancy"] == 0
    _report(7, "operator-removal identity exactly zero (order 5 rank-one, "
               "order 4 triangle)")


def test_criterion_08_kernel_identities():
    from latticesums.kernel import KernelParams
    from reference import (bernoulli_poly, kernel_coeff, kernel_moment,
                           moment_integral_exact)
    ring = ExactRing(12)
    for y in (Fraction(0), Fraction(1, 2), Fraction(1, 3)):
        for k in range(9):
            got = kernel_coeff(ring, k, KernelParams.make(Fraction(0), y))
            assert got == ring.from_fraction(bernoulli_poly(k, y))
    for k in range(5):
        for m in range(-3, 4):
            for b in (Fraction(0), Fraction(1, 2), Fraction(1, 3)):
                assert moment_integral_exact(ring, k, m, b) == \
                    ring.from_fraction(kernel_moment(k, m, b))
    _report(8, "Bernoulli coefficients k<=8 and the four-case moment table "
               "verified by exact symbolic integration")


def test_criterion_09_invariance_suite():
    fixtures = [
        (hurwitz_a1(1), Y0_1, (2, 2, 2)),
        (hurwitz_a1(2), Y0_1, (2, 2, 2)),
        (hurwitz_a1(3), Y0_1, (2, 2, 2)),
        (triangle(Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)),
         (Fraction(1, 7), Fraction(1, 11)), (1, 2, 2)),
        (a2_directions(), (Fraction(1, 7), Fraction(1, 11)), (2, 2, 2)),
    ]
    for arr, y, k in fixtures:
        base = format_scalar(lattice_sum_value(arr, y, k).value)
        perm = list(range(arr.size))[::-1]
        arr_p = permuted(arr, perm)
        k_p = tuple(k[i] for i in perm)
        assert format_scalar(lattice_sum_value(arr_p, y, k_p).value) == base
        phi2 = later_phi(arr)
        assert format_scalar(
            lattice_sum_value(arr, y, k, phi=phi2).value) == base
    _report(9, "permutation and phi-choice leave exact outputs "
               "bit-identical")


def test_criterion_10_degenerate_weight_semantics():
    beta, gamma, y2 = Fraction(1, 3), Fraction(1, 5), Fraction(1, 7)
    arr = triangle(0, beta, gamma)
    y = (Fraction(1, 11), y2)
    rep = lattice_sum_value(arr, y, (0, 1, 2))
    one_dim = Arrangement(1, [make_functional((1,), beta),
                              make_functional((1,), gamma)])
    rep1 = lattice_sum_value(one_dim, (y2,), (1, 2))
    import math
    N = rep.value.field.N * rep1.value.field.N // math.gcd(
        rep.value.field.N, rep1.value.field.N)
    big = ExactRing(N)
    assert lift(rep.value, big) == -lift(rep1.value, big)
    arr_half = triangle(Fraction(1, 2), beta, gamma)
    rep_half = lattice_sum_value(arr_half, y, (0, 1, 2))
    assert rep_half.value.is_zero()
    _report(10, "zero-weight slot reduces to (-1) times the "
                "one-dimensional value, and vanishes for a non-integral "
                "constant")
