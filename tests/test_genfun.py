import dataclasses
import itertools
import json
import math
import re
import time
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import assume, given, settings, strategies as st
from mpmath.ctx_mp import MPContext

from latticesums import genfun, intlinalg, lattice
from latticesums import series as series_module
from latticesums.errors import ExcludedPoint, NonDivisible
from latticesums.families import (a2_directions, hurwitz_a1, hurwitz_a2,
                                  root_system, triangle)
from latticesums.genfun import (EvaluationContext, WeightVector,
                                _symmetry_factor, build_summands,
                                clear_coefficient_table, coefficient,
                                cyclotomic_order, generating_function,
                                lattice_sum_value, zeta_from_S)
from latticesums.kernel import (KernelParams, kernel_base, kernel_parts,
                                kernel_series, rooted_series)
from latticesums.lattice import (Arrangement, GaussianRational, choose_phi,
                                frac_part, make_functional)
from latticesums.oracle import TruncationWindow, truncated_sum
from latticesums.polytope import genfun_via_polytopes
from latticesums.scalar import ExactRing, NumericRing, format_scalar
from latticesums.series import (LinearForm, RationalForm, TruncatedSeries,
                                Truncation, division_count,
                                sum_rational_forms)
from reference import (fraction_dead_unit, fraction_geometry,
                       full_order_summand, later_phi, lift, permuted,
                       pi_pow, series_variable, summand_rational_form,
                       termwise_unit_product, termwise_unit_summand,
                       unit_inverse, with_truncation)

CTX = MPContext()
CTX.prec = 128


def emb(x):
    return complex(x.embed(CTX))


# ---------------------------------------------------------------------------
# cyclotomic order
# ---------------------------------------------------------------------------


def test_cyclotomic_order_examples():
    assert cyclotomic_order(hurwitz_a1(1), (Fraction(0),)) == 4
    assert cyclotomic_order(hurwitz_a1(Fraction(1, 2)), (Fraction(0),)) == 4
    assert cyclotomic_order(hurwitz_a1(Fraction(1, 3)),
                            (Fraction(1, 5),)) == 60
    with pytest.raises(ValueError):
        cyclotomic_order(Arrangement(1, [make_functional((1,), 0.5 + 0.25j)]),
                         (Fraction(0),))


def test_cyclotomic_order_covers_products():
    # c = 1/4 pairing with y = 1/4 needs e^{2 pi i/16}
    arr = Arrangement(1, [make_functional((1,), Fraction(1, 4))])
    assert cyclotomic_order(arr, (Fraction(1, 4),)) % 16 == 0


# ---------------------------------------------------------------------------
# the generating function against the printed closed forms
# ---------------------------------------------------------------------------


def test_rank1_single_functional_is_kernel():
    b = Fraction(1, 3)
    arr = Arrangement(1, [make_functional((1,), b)])
    y = (Fraction(2, 7),)
    ctx = EvaluationContext(arr, y, "exact")
    F = generating_function(arr, y, 6, ctx=ctx)
    K = kernel_series(ctx.ring, KernelParams.make(b, Fraction(2, 7)), 6,
                      var="t0")
    for k in range(7):
        assert F.coefficient((k,)) == K.coefficient((k,))


def _display_summand(ctx, den_coeffs, den_const_q, kernels, order):
    """one printed summand: t_g/(linear form) * kernel factors"""
    ring = ctx.ring
    trunc = Truncation(order)
    gvar = [v for v, c in den_coeffs.items() if c == 1][0]
    form = LinearForm(den_coeffs, den_const_q)
    num = series_variable(ring, ctx.vars, trunc, gvar)
    num = num * unit_inverse(ring, ctx.vars, trunc, form)
    for var, b, yhat in kernels:
        num = num * kernel_series(ring, KernelParams.make(b, yhat), order,
                                  var=var).extend(ctx.vars, trunc)
    return num


def test_triangle_closed_form_display(generic_y2):
    # the three-summand printed form with non-integral rational constants
    a, b, g = Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)
    arr = triangle(a, b, g)
    y1, y2 = generic_y2
    ctx = EvaluationContext(arr, generic_y2, "exact")
    d12 = y1 - y2 - (y1 - y2).numerator // (y1 - y2).denominator  # {y1-y2}
    order = 4
    s1 = _display_summand(
        ctx, {"t2": Fraction(1), "t0": Fraction(-1), "t1": Fraction(-1)},
        g - a - b,
        [("t0", a, y1), ("t1", b, y2)], order)
    s2 = _display_summand(
        ctx, {"t1": Fraction(1), "t0": Fraction(1), "t2": Fraction(-1)},
        b + a - g,
        [("t0", a, d12), ("t2", g, y2)], order)
    s3 = _display_summand(
        ctx, {"t0": Fraction(1), "t1": Fraction(1), "t2": Fraction(-1)},
        a + b - g,
        [("t1", b, 1 - d12), ("t2", g, y1)], order)
    display = s1 + s2 + s3
    F = generating_function(arr, generic_y2, order, ctx=ctx)
    exps = set(display.terms) | set(F.terms)
    assert all(display.coefficient(e) == F.coefficient(e) for e in exps)


def test_rank1_family_closed_form_display():
    # the printed three-summand form; variables t0, t1, t2 carry the
    # functionals with directions -1, +1, +1 and constants a, 0, a
    alpha, y = Fraction(1, 2), Fraction(1, 3)
    arr = hurwitz_a1(alpha)
    ctx = EvaluationContext(arr, (y,), "exact")
    order = 5
    ring = ctx.ring
    trunc = Truncation(order)

    def unit(coeffs, const_q):
        # t_g / (sum coeffs[v] t_v - 2 pi i const_q), g the +1 coefficient
        form = LinearForm(coeffs, const_q)
        gvar = [v for v, c in coeffs.items() if c == 1][0]
        t = series_variable(ring, ctx.vars, trunc, gvar)
        return t * unit_inverse(ring, ctx.vars, trunc, form)

    def ker(var, b, yhat):
        return kernel_series(ring, KernelParams.make(b, yhat), order,
                             var=var).extend(ctx.vars, trunc)

    display = (
        # t1/(t1 + (t0 - 2 pi i a)) * t2/(t2 - 2 pi i a + (t0 - 2 pi i a))
        unit({"t1": Fraction(1), "t0": Fraction(1)}, alpha)
        * unit({"t2": Fraction(1), "t0": Fraction(1)}, 2 * alpha)
        * ker("t0", alpha, 1 - y)
        # t0/(t0 - 2 pi i a + t1) * t2/(t2 - 2 pi i a - t1)
        + unit({"t0": Fraction(1), "t1": Fraction(1)}, alpha)
        * unit({"t2": Fraction(1), "t1": Fraction(-1)}, alpha)
        * ker("t1", Fraction(0), y)
        # t0/(t0 - 2 pi i a + (t2 - 2 pi i a)) * t1/(t1 - (t2 - 2 pi i a))
        + unit({"t0": Fraction(1), "t2": Fraction(1)}, 2 * alpha)
        * unit({"t1": Fraction(1), "t2": Fraction(-1)}, -alpha)
        * ker("t2", alpha, y))
    F = generating_function(arr, (y,), order, ctx=ctx)
    exps = set(display.terms) | set(F.terms)
    assert all(display.coefficient(e) == F.coefficient(e) for e in exps)


def test_degenerate_assembly_matches_oracle(generic_y2):
    arr = a2_directions()
    ctx = EvaluationContext(arr, generic_y2, "exact")
    rep1 = lattice_sum_value(arr, generic_y2, (1, 1, 1), ctx=ctx)
    z1 = truncated_sum(arr, (1, 1, 1), generic_y2, TruncationWindow(1000))
    assert abs(emb(rep1.value) - complex(z1)) < 1e-5
    rep2 = lattice_sum_value(arr, generic_y2, (2, 2, 2), ctx=ctx)
    z2 = truncated_sum(arr, (2, 2, 2), generic_y2, TruncationWindow(500))
    assert abs(emb(rep2.value) - complex(z2)) < 1e-9


# ---------------------------------------------------------------------------
# printed coefficient values
# ---------------------------------------------------------------------------


def _transcribed_C012(ctx, beta, gamma, y2):
    R = ctx.ring
    i = R.field.zeta_pow(R.N // 4)
    pi = pi_pow(R, 1)

    def e(q):
        return R.root_of_unity(q)

    bg = R.from_fraction(beta - gamma)
    t1 = i * R.from_fraction(y2) * e(-gamma * y2) \
        / (R.from_fraction(2) * (e(-gamma) - R.one()) * pi * bg)
    t2 = -(i * e(-gamma * (1 + y2))) \
        / (R.from_fraction(2) * (e(-gamma) - R.one()) ** 2 * pi * bg)
    t3 = e(-beta * y2) \
        / (R.from_fraction(4) * (e(-beta) - R.one()) * pi**2 * bg**2)
    t4 = -(e(-gamma * y2)) \
        / (R.from_fraction(4) * (e(-gamma) - R.one()) * pi**2 * bg**2)
    return t1 + t2 + t3 + t4


def test_C012_closed_form_up_to_printed_factor():
    """The printed four-term form reproduces C((0,1,2)) only after an
    overall factor two; the factor is pinned down independently by the
    brute-force sum (see test below), so the reference display is off by
    exactly 2 and the corrected form is asserted here."""
    beta, gamma, y2 = Fraction(1, 3), Fraction(1, 5), Fraction(1, 7)
    arr = triangle(0, beta, gamma)
    y = (Fraction(1, 11), y2)
    ctx = EvaluationContext(arr, y, "exact")
    got = coefficient(arr, y, (0, 1, 2), ctx=ctx)
    assert got == _transcribed_C012(ctx, beta, gamma, y2) * 2


def test_S012_against_direct_one_dimensional_sum():
    beta, gamma, y2 = Fraction(1, 3), Fraction(1, 5), Fraction(1, 7)
    arr = triangle(0, beta, gamma)
    y = (Fraction(1, 11), y2)
    rep = lattice_sum_value(arr, y, (0, 1, 2))
    # the zero weight restricts the sum to v = (0, n), |n| <= 20000:
    # -sum_n e^{2 pi i y2 n} / ((n + 1/3) (n + 1/5)^2)
    z = truncated_sum(arr, (0, 1, 2), y, TruncationWindow(20000))
    assert abs(emb(rep.value) - complex(z)) < 1e-8


def test_C222_nonintegral_branch_closed_form():
    a, yv = Fraction(1, 2), Fraction(1, 3)
    arr = hurwitz_a1(a)
    ctx = EvaluationContext(arr, (yv,), "exact")
    R = ctx.ring
    i = R.field.zeta_pow(R.N // 4)
    pi = pi_pow(R, 1)
    aF = R.from_fraction
    e = R.root_of_unity
    E = e(a) - R.one()
    y_ = aF(yv)
    c = (-aF(Fraction(1, 4)) * (pi**6 * aF(a**6)).inv()
         + aF(Fraction(1, 24)) * (pi**4 * aF(a**4)).inv()
         - y_ * aF(Fraction(1, 4)) * (pi**4 * aF(a**4)).inv()
         + y_ * y_ * aF(Fraction(1, 4)) * (pi**4 * aF(a**4)).inv()
         - aF(3) * i * e(a * yv) / (aF(16) * pi**5 * aF(a**5) * E**2)
         - aF(3) * i * e(a * (1 - yv)) / (aF(16) * pi**5 * aF(a**5) * E**2)
         + aF(3) * i * e(a * (2 - yv)) / (aF(16) * pi**5 * aF(a**5) * E**2)
         + aF(3) * i * e(a * (yv + 1)) / (aF(16) * pi**5 * aF(a**5) * E**2)
         - y_ * e(a * yv) / (aF(8) * pi**4 * aF(a**4) * E**2)
         + y_ * e(a * (1 - yv)) / (aF(8) * pi**4 * aF(a**4) * E**2)
         - y_ * e(a * (2 - yv)) / (aF(8) * pi**4 * aF(a**4) * E**2)
         + y_ * e(a * (yv + 1)) / (aF(8) * pi**4 * aF(a**4) * E**2)
         - e(a * (1 - yv)) / (aF(8) * pi**4 * aF(a**4) * E**2)
         - e(a * (yv + 1)) / (aF(8) * pi**4 * aF(a**4) * E**2))
    assert coefficient(arr, (yv,), (2, 2, 2), ctx=ctx) == c


def test_C222_integral_branch_closed_form():
    yv = Fraction(1, 3)
    arr = hurwitz_a1(1)
    ctx = EvaluationContext(arr, (yv,), "exact")
    R = ctx.ring
    i = R.field.zeta_pow(R.N // 4)
    pi = pi_pow(R, 1)
    aF = R.from_fraction
    e = R.root_of_unity
    y_ = aF(yv)
    em, ep = e(-yv), e(yv)
    c = (-aF(Fraction(1, 4)) * (pi**6).inv()
         + aF(Fraction(1, 24)) * (pi**4).inv()
         - y_ * aF(Fraction(1, 4)) * (pi**4).inv()
         + y_ * y_ * aF(Fraction(1, 4)) * (pi**4).inv()
         - aF(3) * i * y_ * em / (aF(16) * pi**5)
         + aF(3) * i * y_ * ep / (aF(16) * pi**5)
         + aF(3) * i * em / (aF(32) * pi**5)
         - aF(3) * i * ep / (aF(32) * pi**5)
         + y_ * y_ * em / (aF(16) * pi**4)
         + y_ * y_ * ep / (aF(16) * pi**4)
         - y_ * em / (aF(16) * pi**4)
         - y_ * ep / (aF(16) * pi**4)
         - aF(23) * em / (aF(128) * pi**6)
         - aF(23) * ep / (aF(128) * pi**6)
         + em / (aF(96) * pi**4)
         + ep / (aF(96) * pi**4))
    assert coefficient(arr, (yv,), (2, 2, 2), ctx=ctx) == c


# ---------------------------------------------------------------------------
# degenerate-weight semantics and zero cases
# ---------------------------------------------------------------------------


def test_zero_weight_nonintegral_constant_kills_sum():
    arr = triangle(Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))
    rep = lattice_sum_value(arr, (Fraction(1, 7), Fraction(1, 11)), (0, 1, 2))
    assert rep.value.is_zero()


def test_constant_term_vanishes_with_nonintegral_constants(triangle_rational,
                                                           generic_y2):
    c = coefficient(triangle_rational, generic_y2, (0, 0, 0))
    assert c.is_zero()


def test_reduction_to_lower_dimension():
    beta, gamma, y2 = Fraction(1, 3), Fraction(1, 5), Fraction(1, 7)
    arr = triangle(0, beta, gamma)
    rep = lattice_sum_value(arr, (Fraction(1, 11), y2), (0, 1, 2))
    one_dim = Arrangement(1, [make_functional((1,), beta),
                              make_functional((1,), gamma)])
    rep1 = lattice_sum_value(one_dim, (y2,), (1, 2))
    # compare exactly inside one common field
    import math as _math
    N = rep.value.field.N * rep1.value.field.N // _math.gcd(
        rep.value.field.N, rep1.value.field.N)
    from latticesums.scalar import ExactRing
    big = ExactRing(N)
    assert lift(rep.value, big) == -lift(rep1.value, big)


# ---------------------------------------------------------------------------
# invariances
# ---------------------------------------------------------------------------


def test_phi_independence(triangle_rational, generic_y2):
    arr = triangle_rational
    phi1 = choose_phi(arr)
    phi2 = later_phi(arr)
    assert phi1.phi != phi2.phi
    r1 = lattice_sum_value(arr, generic_y2, (1, 2, 2), phi=phi1)
    r2 = lattice_sum_value(arr, generic_y2, (1, 2, 2), phi=phi2)
    assert r1.value == r2.value


def test_phi_independence_at_lattice_point():
    arr = hurwitz_a1(1)
    r1 = lattice_sum_value(arr, (Fraction(0),), (2, 2, 2),
                           phi=choose_phi(arr))
    r2 = lattice_sum_value(arr, (Fraction(0),), (2, 2, 2),
                           phi=later_phi(arr))
    assert r1.value == r2.value


def test_permutation_invariance(triangle_rational, generic_y2):
    arr = triangle_rational
    k = (1, 2, 3)
    base = lattice_sum_value(arr, generic_y2, k).value
    for perm in [(1, 0, 2), (2, 1, 0), (1, 2, 0)]:
        arr_p = permuted(arr, perm)
        k_p = tuple(k[i] for i in perm)
        got = lattice_sum_value(arr_p, generic_y2, k_p).value
        assert format_scalar(got) == format_scalar(base)


def test_generating_function_full_series_serves_coefficients(a1_alpha1):
    y = (Fraction(0),)
    ctx = EvaluationContext(a1_alpha1, y, "exact")
    F = generating_function(a1_alpha1, y, 6, ctx=ctx)
    c_series = F.coefficient((2, 2, 2)) * ctx.ring.from_fraction(
        Fraction(math.factorial(2) ** 3))
    c_direct = coefficient(a1_alpha1, y, (2, 2, 2))
    assert c_series == c_direct


# rank-two cases shaped like the benchmark's random ones: directions from a
# small pool, constants with denominators 1-4, shifts with prime
# denominators, and no singular hyperplane (N = 924 and 4368).  Two
# integral constants span a basis of index 1, whose kernels have nonzero
# constant terms and no coset sum to cancel them, so the corner e = k_B of
# its box counts.
NONSINGULAR_RANK2 = [
    (((1, 0), (1, 1), (2, 1)),
     (Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)),
     (Fraction(3, 7), Fraction(-2, 11))),
    (((1, -1), (1, 2), (0, 1), (-1, 2)),
     (Fraction(1), Fraction(-3, 4), Fraction(0), Fraction(-1, 3)),
     (Fraction(5, 13), Fraction(1, 7))),
]


def _nonsingular_cases(triangle_rational, generic_y2):
    yield triangle_rational, generic_y2
    for dirs, consts, y in NONSINGULAR_RANK2:
        yield Arrangement(2, [make_functional(d, c)
                              for d, c in zip(dirs, consts)]), y


@pytest.mark.parametrize("mode", ["exact", "numeric"])
def test_coefficient_without_singular_denominator_matches_series(
        mode, triangle_rational, generic_y2):
    # every summand is read at k from closed-form coefficients on the box
    # e <= k_B; the full series builds it whole
    for arr, y in _nonsingular_cases(triangle_rational, generic_y2):
        ctx = EvaluationContext(arr, y, mode)
        assert ctx.mode == "numeric" or ctx.N >= 28
        assert not any(s.degenerate_factors for s in build_summands(ctx))
        for total in range(5):
            series = generating_function(arr, y, total, ctx=ctx)
            for k in itertools.product(range(total + 1), repeat=arr.size):
                if sum(k) != total:
                    continue
                fact = math.prod(math.factorial(x) for x in k)
                want = series.coefficient(k) * ctx.ring.from_fraction(fact)
                got = coefficient(arr, y, k, ctx=EvaluationContext(
                    arr, y, mode))
                if mode == "exact":
                    assert got == want, k
                else:
                    err = abs(got - want) / max(1, abs(want))
                    assert err < CTX.mpf(2) ** -100, k


# (directions, constants, y, largest |k|).  The benchmark's fixed singular
# case: (2,1) = (1,1) + (1,0) and -1/3 = -1/3 + 0 give a singular
# hyperplane.  In rank three, bases that share a singular hyperplane meet
# in different points, so some singular summands have unit factors too,
# which read zero at k_g = 0.
SINGULAR = [
    (((2, 1), (1, 1), (1, 0), (-1, 2)),
     (Fraction(-1, 3), Fraction(-1, 3), Fraction(0), Fraction(-1, 2)),
     (Fraction(-10, 7), Fraction(-8, 7)), 4),
    (((0, 1, 1), (0, 1, 0), (1, 0, 0), (1, 1, 0), (1, 0, 1)),
     (Fraction(0), Fraction(0), Fraction(1), Fraction(1), Fraction(-1)),
     (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)), 3),
]


def _singular_cases(generic_y2):
    yield a2_directions(), generic_y2, 4
    for dirs, consts, y, top in SINGULAR:
        yield Arrangement(len(y), [make_functional(d, c)
                                   for d, c in zip(dirs, consts)]), y, top


@pytest.mark.parametrize("mode", ["exact", "numeric"])
def test_coefficient_with_singular_denominator_matches_series(
        mode, generic_y2):
    # a summand with a singular denominator is read at k on its own, in
    # the field of iterated Laurent series, with no division; the
    # reference divides the singular denominators out of the sum of every
    # summand's rational form, at the working order top + divisions
    for arr, y, top in _singular_cases(generic_y2):
        ctx = EvaluationContext(arr, y, mode)
        summands = build_summands(ctx)
        assert any(s.degenerate_factors for s in summands)
        series = _summed_at(ctx, summands, top + division_count(
            s.denominators for s in summands))
        for k in itertools.product(range(top + 1), repeat=arr.size):
            if sum(k) > top:
                continue
            fact = math.prod(math.factorial(x) for x in k)
            want = series.coefficient(k) * ctx.ring.from_fraction(fact)
            got = coefficient(arr, y, k, ctx=EvaluationContext(arr, y, mode))
            if mode == "exact":
                assert got == want, k
            else:
                err = abs(got - want) / max(1, abs(want))
                assert err < CTX.mpf(2) ** -100, k

# Rank two with a Gaussian-rational constant on (1,-1): the other three
# functionals meet in a singular hyperplane (8/15 = 1/3 + 1/5), so the
# bases among them are singular summands that carry the (1,-1) factor as
# a collapsed unit with a Gaussian constant, and the bases holding (1,-1)
# are unit summands whose factors have Gaussian constants too.  Exact mode refuses a non-real constant (its kernel is
# not in a cyclotomic field), so the comparisons run in numeric mode.
GAUSSIAN_UNITS = (((1, 0), (0, 1), (1, 1), (1, -1)),
                  (Fraction(1, 3), Fraction(1, 5), Fraction(8, 15),
                   GaussianRational(Fraction(1, 4), Fraction(1, 3))))


@pytest.mark.parametrize("k", [(2, 1, 1, 1), (1, 1, 2, 2), (1, 2, 1, 3)])
def test_coefficient_with_gaussian_unit_constants(k, generic_y2):
    arr = Arrangement(2, [make_functional(d, c)
                          for d, c in zip(*GAUSSIAN_UNITS)])
    ctx = EvaluationContext(arr, generic_y2, "numeric")
    with pytest.raises(ValueError):
        EvaluationContext(arr, generic_y2, "exact")

    def gaussian_units(s):
        return any(isinstance(den.c, GaussianRational)
                   for _, den in s.unit_factors)

    summands = build_summands(ctx)
    assert any(gaussian_units(s) and not s.degenerate_factors
               for s in summands)
    assert any(gaussian_units(s) and s.degenerate_factors
               for s in summands)
    # the full series multiplies the factors as live inverse powers, the
    # coefficient path collapses them into unit products
    series = generating_function(arr, generic_y2, sum(k), ctx=ctx)
    fact = math.prod(math.factorial(x) for x in k)
    want = series.coefficient(k) * fact
    got = coefficient(arr, generic_y2, k, mode="numeric")
    assert abs(got - want) / max(1, abs(want)) < CTX.mpf(2) ** -100
    # and the 128-bit value is the 256-bit one to within 2^-100
    clear_coefficient_table()
    fine = coefficient(arr, generic_y2, k, mode="numeric", precision=256)
    assert abs(got - fine) / max(1, abs(fine)) < CTX.mpf(2) ** -100


def _summed_at(ctx, summands, work):
    return sum_rational_forms([
        summand_rational_form(ctx, s, Truncation(work)) for s in summands])


@pytest.mark.parametrize("order", [2, 4])
def test_working_order_is_order_plus_divisions(order):
    # each exact division loses one degree: built at order + divisions the
    # sum is exact through `order`, and one degree less loses degree
    # `order` (the series has no term of odd degree here, so an odd order
    # would show nothing)
    arr = a2_directions()
    ctx = EvaluationContext(arr, (0, 0), "exact")
    summands = build_summands(ctx)
    divisions = division_count(s.denominators for s in summands)
    assert divisions > 0
    exact = _summed_at(ctx, summands, order + divisions)
    spare = _summed_at(ctx, summands, order + divisions + 2)
    short = _summed_at(ctx, summands, order + divisions - 1)
    degrees = [e for e in itertools.product(range(order + 1), repeat=3)
               if sum(e) <= order]
    assert all(exact.coefficient(e) == spare.coefficient(e)
               for e in degrees)
    assert any(short.coefficient(e) != exact.coefficient(e)
               for e in degrees if sum(e) == order)


# (evaluator, mode, change, order): the full series at three orders, and
# the coefficient at k = (1, 2, 1) in both modes, each summand dropped or
# negated; at that k each of the three summands reads nonzero at t0^-1
WITHOUT_ONE_SUMMAND = [
    pytest.param("series", "exact", "drop", order, id=str(order))
    for order in (2, 3, 4)] + [
    pytest.param("coefficient", mode, change, None,
                 id=f"coefficient-{mode}-{change}")
    for mode in ("exact", "numeric") for change in ("drop", "negate")]


@pytest.mark.parametrize("evaluator, mode, change, order",
                         WITHOUT_ONE_SUMMAND)
@pytest.mark.parametrize("dropped", [0, 1, 2])
def test_sum_without_one_summand_is_not_divisible(
        evaluator, mode, change, order, dropped, monkeypatch):
    # the self-checks of the assembled sum: without one basis's summand, or
    # with it negated, the sum is not holomorphic: the summands' reads one
    # degree below zero in t0, which leads a singular factor of each, no
    # longer cancel, at some exponent through the order of the full series
    # and at the coefficient path's k
    real = genfun.build_summands

    def changed(ctx):
        summands = real(ctx)
        assert len(summands) == 3
        assert all(s.degenerate_factors for s in summands)
        s = summands[dropped]
        return summands[:dropped] + (
            [] if change == "drop"
            else [dataclasses.replace(s, weight=-s.weight)]) \
            + summands[dropped + 1:]

    monkeypatch.setattr(genfun, "build_summands", changed)
    with pytest.raises(NonDivisible):
        if evaluator == "series":
            generating_function(a2_directions(), (0, 0), order, mode=mode)
        else:
            coefficient(a2_directions(), (0, 0), (1, 2, 1), mode=mode)


# ---------------------------------------------------------------------------
# the summand builder
# ---------------------------------------------------------------------------


UNIT_VARS = ("t0", "t1", "t2")
UNIT_RINGS = {4: ExactRing(4), 60: ExactRing(60)}
CTX256 = MPContext()
CTX256.prec = 256


def _unit_constant(draw, gaussian):
    re = Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 7)))
    im = Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 7))) \
        if gaussian and draw(st.booleans()) else Fraction(0)
    if re == 0 and im == 0:
        re = Fraction(1, 3)
    return re if im == 0 else GaussianRational(re, im)


@st.composite
def _unit_factors(draw, gaussian=True):
    """(coefficients, constant, k) triples: rational coefficients on one
    to three of UNIT_VARS, a nonzero Fraction or (when `gaussian`)
    Gaussian-rational constant and k from 1 to 4; one time in two the
    last linear part is a rational multiple of the first, with its own
    constant."""
    out = []
    for _ in range(draw(st.integers(1, 3))):
        names = draw(st.lists(st.sampled_from(UNIT_VARS), min_size=1,
                              max_size=3, unique=True))
        coeffs = {v: Fraction(draw(st.integers(-6, 6).filter(bool)),
                              draw(st.integers(1, 9))) for v in names}
        out.append((coeffs, _unit_constant(draw, gaussian),
                    draw(st.integers(1, 4))))
    if draw(st.booleans()):
        scale = Fraction(draw(st.integers(-4, 4).filter(bool)),
                         draw(st.integers(1, 5)))
        out.append(({v: q * scale for v, q in out[0][0].items()},
                    _unit_constant(draw, gaussian), draw(st.integers(1, 4))))
    return out


_unit_truncations = st.builds(
    lambda total, box: Truncation(total, box and tuple(box)),
    st.integers(0, 5),
    st.none() | st.lists(st.integers(0, 3), min_size=3, max_size=3))


def _inverse_power_product(ring, factors, trunc):
    """The reference: prod (a + L)^(-k) as k series products of each
    form's generic inverse (``reference.unit_inverse``)."""
    out = TruncatedSeries.one(ring, UNIT_VARS, trunc)
    for coeffs, c, k in factors:
        inverse = unit_inverse(ring, UNIT_VARS, trunc,
                               LinearForm(coeffs, c))
        for _ in range(k):
            out = out * inverse
    return out


def _unit_product(ring, factors, trunc, exponent=None, scale=1, times=None):
    """The unit product of the (form, k) `factors`: its ``unit_parts``,
    lifted on their own (``lift_units``)."""
    return genfun.lift_units(ring, UNIT_VARS, trunc, [genfun.unit_parts(
        ring, factors, UNIT_VARS, trunc, exponent, scale, times)])


def _drawn_product(ring, factors, trunc):
    return _unit_product(
        ring, [(LinearForm(coeffs, c), k) for coeffs, c, k in factors],
        trunc)


# two factors whose linear parts agree up to scale, one with a Gaussian
# constant, and a third on other variables
SCALED_FACTORS = [
    ({"t0": Fraction(1), "t1": Fraction(-2, 3)}, Fraction(2, 5)),
    ({"t0": Fraction(-3, 2), "t1": Fraction(1)},
     GaussianRational(Fraction(1, 2), Fraction(-1, 3))),
    ({"t1": Fraction(1, 4), "t2": Fraction(5)}, Fraction(-3, 7)),
]


def _scaled_factors(ring):
    """SCALED_FACTORS for `ring`: the exact ring reads real constants
    only (exact mode refuses the others), so it takes the Gaussian one at
    its real part."""
    if not ring.exact:
        return SCALED_FACTORS
    return [(coeffs, c.re if isinstance(c, GaussianRational) else c)
            for coeffs, c in SCALED_FACTORS]


@pytest.mark.parametrize("box", [None, (2, 1, 3)], ids=["total", "box"])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("ring", ["4", "60", "numeric"])
def test_unit_product_is_the_product_of_inverse_powers(ring, k, box):
    # term by term: exact rings equal the series products of the inverse
    # powers, the 128-bit ring their exact value within 2^-120 relative,
    # with the Gaussian constant that the exact ring does not read
    exact = UNIT_RINGS[4 if ring == "numeric" else int(ring)]
    factors = [(coeffs, c, k + i % 2) for i, (coeffs, c) in enumerate(
        _scaled_factors(NumericRing(128) if ring == "numeric" else exact))]
    trunc = Truncation(5, box)
    want = _inverse_power_product(exact, factors, trunc)
    assert want.terms
    if ring != "numeric":
        assert _drawn_product(exact, factors, trunc).terms == want.terms
        return
    got = _drawn_product(NumericRing(128), factors, trunc)
    assert set(got.terms) == set(want.terms)
    for e, c in want.terms.items():
        c = c.embed(CTX256)
        assert abs(got.terms[e] - c) <= CTX256.mpf(2) ** -120 * abs(c), e


@pytest.mark.parametrize("N", [4, 60])
@settings(max_examples=25, deadline=None)
@given(factors=_unit_factors(gaussian=False), trunc=_unit_truncations)
def test_unit_product_matches_inverse_powers_exact(N, factors, trunc):
    ring = UNIT_RINGS[N]
    assert _drawn_product(ring, factors, trunc).terms == \
        _inverse_power_product(ring, factors, trunc).terms


@settings(max_examples=25, deadline=None)
@given(factors=_unit_factors(), trunc=_unit_truncations)
def test_unit_product_matches_inverse_powers_numeric(factors, trunc):
    want = _inverse_power_product(UNIT_RINGS[4], factors, trunc)
    got = _drawn_product(NumericRing(128), factors, trunc)
    assert set(got.terms) == set(want.terms)
    for e, c in want.terms.items():
        c = c.embed(CTX256)
        assert abs(got.terms[e] - c) <= CTX256.mpf(2) ** -120 * abs(c), e


def test_unit_product_rejects_a_zero_constant():
    ring = UNIT_RINGS[4]
    with pytest.raises(NonDivisible):
        genfun.unit_parts(ring, [(LinearForm({"t0": 1}), 1)],
                          UNIT_VARS, Truncation(2))


def test_unit_product_of_no_factor_is_one():
    ring = UNIT_RINGS[60]
    got = _unit_product(ring, [], Truncation(3, (1, 1, 1)))
    assert got.terms == {(0, 0, 0): ring.one()}


# (N, exponent constant): each root e^(-2 pi i c) lies in Q(zeta_N), and
# N = 2772 = 4 * 9 * 7 * 11 has four prime-power factors
LIFT_RINGS = [(4, Fraction(3, 4)), (60, Fraction(7, 30)),
              (2772, Fraction(5, 36))]


@pytest.mark.parametrize("box", [None, (3, 2, 4)], ids=["total", "box"])
@pytest.mark.parametrize("N, c", LIFT_RINGS, ids=[str(n) for n, _ in
                                                   LIFT_RINGS])
def test_one_step_lift_matches_the_termwise_lift(N, c, box):
    # the coefficients built in one step from their int numerators equal
    # the per-term lift, with an exponent form, a box and a Fraction
    # scale, and with none of the three
    ring = ExactRing(N)
    trunc = Truncation(5, box)
    factors = [(LinearForm(coeffs, const), k) for (coeffs, const), k
               in zip(_scaled_factors(ring), (2, 1, 3))]
    exponent = LinearForm({"t0": Fraction(2, 3), "t2": Fraction(-1)}, c)
    got = _unit_product(ring, factors, trunc, exponent, Fraction(-14, 9))
    want = termwise_unit_product(ring, factors, UNIT_VARS, trunc, exponent,
                                 Fraction(-14, 9))
    assert len(want.terms) > 20
    assert got.terms == want.terms
    assert all(x.den > 0 and math.gcd(x.den, *x.terms.values()) == 1
               for x in got.terms.values())
    plain = _unit_product(ring, factors, trunc)
    assert plain.terms == termwise_unit_product(ring, factors, UNIT_VARS,
                                                trunc).terms


@pytest.mark.parametrize("ring", ["4", "60", "numeric"])
def test_unit_product_times_a_series_is_the_series_product(ring):
    # a series given as `times` is multiplied inside the lift: the same as
    # the series product with the unit product (within 2^-120 relative at
    # 128 bits), and an empty one gives the zero series
    ring = NumericRing(128) if ring == "numeric" else UNIT_RINGS[int(ring)]
    trunc = Truncation(5, (3, 2, 4))
    factors = [(LinearForm(coeffs, const), k) for (coeffs, const), k
               in zip(_scaled_factors(ring), (2, 1, 3))]
    root = ring.root_of_unity(Fraction(1, 4)) + ring.from_fraction(
        Fraction(2, 3))
    times = TruncatedSeries(ring, UNIT_VARS, trunc, {
        (0, 0, 0): ring.from_fraction(Fraction(-5, 7)),
        (1, 0, 2): root, (0, 2, 1): root * root,
        (2, 1, 0): ring.two_pi_i() * ring.from_fraction(Fraction(3, 11))})
    got = _unit_product(ring, factors, trunc, times=times.terms)
    want = times * _unit_product(ring, factors, trunc)
    assert len(want.terms) > 20
    if ring.exact:
        assert got.terms == want.terms
    else:
        assert set(got.terms) == set(want.terms)
        for e, w in want.terms.items():
            assert abs(got.terms[e] - w) <= 2.0 ** -120 * abs(w), e
    assert _unit_product(ring, factors, trunc, times={}).terms == {}


def test_one_step_lift_turns_each_part_by_its_power_of_i():
    # one term: (2 pi i)^(-(K + n)) = pi^(-(K + n)) i^(-(K + n)) / 2^(K + n)
    ring = ExactRing(12)
    x = ring.root_of_unity(Fraction(1, 3)) + ring.from_fraction(2)
    for K in range(4):
        for n in range(3):
            got = ring.unit_lift({(): [(n, 5, x)]}, 21, K)
            want = x * ring.from_fraction(Fraction(5, 21)) \
                * ring.inv(ring.two_pi_i()) ** (K + n)
            assert got[()] == want


def test_numeric_lift_turns_a_gaussian_numerator_by_i():
    # the numeric ring reads the Gaussian numerators of non-real constants:
    # one term's imaginary part is turned once more by i, within 2^-120
    # relative of the exact value at 128 bits
    ring, exact = NumericRing(128), ExactRing(12)
    i = exact.root_of_unity(Fraction(1, 4))
    x = ring.root_of_unity(Fraction(1, 3)) + ring.from_fraction(2)
    x_exact = exact.root_of_unity(Fraction(1, 3)) + exact.from_fraction(2)
    v = GaussianRational(Fraction(3), Fraction(-2))
    for K in range(4):
        for n in range(3):
            got = ring.unit_lift({(): [(n, v, x)]}, 21, K)[()]
            want = (exact.from_fraction(3) - i * exact.from_fraction(2)) \
                * x_exact * exact.from_fraction(Fraction(1, 21)) \
                * exact.inv(exact.two_pi_i()) ** (K + n)
            want = want.embed(CTX256)
            assert abs(got - want) <= CTX256.mpf(2) ** -120 * abs(want)


# ---------------------------------------------------------------------------
# one lift for a full series
# ---------------------------------------------------------------------------


# directions e1, e2, (1,1), (1,2) with constants 0, 1/3, 0, 1/3: at
# MIXED_Y three summands carry a singular factor and three do not
MIXED = Arrangement(2, [make_functional(d, c) for d, c in zip(
    ((1, 0), (0, 1), (1, 1), (1, 2)), (0, Fraction(1, 3), 0, Fraction(1, 3)))])
MIXED_Y = (Fraction(1, 7), Fraction(1, 11))


def _unit_part_set(ring):
    """Unit parts with K = 0, 1, 3 and 2, scales over 1, 2, 9 and 4, an
    exponent form, a `times` map and a Gaussian constant."""
    trunc = Truncation(4)
    f = [LinearForm(coeffs, c) for coeffs, c in _scaled_factors(ring)]
    exponent = LinearForm({"t0": Fraction(2, 3), "t2": Fraction(-1)},
                          Fraction(7, 30))
    times = {(0, 0, 0): ring.from_fraction(Fraction(-5, 7)),
             (1, 0, 1): ring.root_of_unity(Fraction(1, 3))
             + ring.from_fraction(Fraction(2, 3))}
    return trunc, [
        genfun.unit_parts(ring, [], UNIT_VARS, trunc),
        genfun.unit_parts(ring, [(f[0], 1)], UNIT_VARS, trunc, exponent,
                          Fraction(3, 2)),
        genfun.unit_parts(ring, [(f[0], 2), (f[1], 1)], UNIT_VARS, trunc,
                          scale=Fraction(-5, 9), times=times),
        genfun.unit_parts(ring, [(f[2], 1), (f[1], 1)], UNIT_VARS, trunc,
                          exponent, Fraction(7, 4))]


def _lifted_one_by_one(ring, vars, trunc, parts):
    total = TruncatedSeries(ring, vars, trunc)
    for p in parts:
        total = total + genfun.lift_units(ring, vars, trunc, [p])
    return total


def _assert_close(got, want, bits=120, sizes=None):
    """Every coefficient of `got` within 2^-bits of `want`'s, relative to
    its size in `sizes` or else to itself; `want` exact (embedded at 256
    bits) or numeric."""
    assert set(got.terms) == set(want.terms)
    for e, w in want.terms.items():
        w = w.embed(CTX256) if hasattr(w, "embed") else CTX256.mpc(w)
        size = abs(w) if sizes is None else sizes[e]
        assert abs(got.terms[e] - w) <= CTX256.mpf(2) ** -bits * size, e


@pytest.mark.parametrize("mode", ["exact", "numeric"])
def test_one_lift_of_unit_parts_is_their_sum(mode):
    # parts with different K, scales over different denominators, an
    # exponent and a `times` map, lifted together, are the sum of their
    # lifts one by one: equal in exact mode, and at 128 bits, with a
    # Gaussian constant, within 2^-120 relative of it at 256 bits
    ring = UNIT_RINGS[60] if mode == "exact" else NumericRing(128)
    trunc, parts = _unit_part_set(ring)
    assert [p.K for p in parts] == [0, 1, 3, 2]
    assert {p.scale.denominator for p in parts} == {1, 2, 9, 4}
    got = genfun.lift_units(ring, UNIT_VARS, trunc, parts)
    if mode == "exact":
        want = _lifted_one_by_one(ring, UNIT_VARS, trunc, parts)
        assert got.terms == want.terms
    else:
        fine = NumericRing(256)
        want = _lifted_one_by_one(fine, UNIT_VARS, trunc,
                                  _unit_part_set(fine)[1])
        _assert_close(got, want)
    assert len(want.terms) > 20
    assert genfun.lift_units(ring, UNIT_VARS, trunc, []).terms == {}


def _vertex_part_sets(mode, a, b, monkeypatch):
    """Per arrangement of ``_unit_edge_cases(a, b)``, the ``(ring, vars,
    trunc, parts)`` of every vertex of its polytope reconstruction."""
    from latticesums import polytope
    from test_polytope import _unit_edge_cases
    real = polytope.unit_parts
    out = []

    def recorded(ring, factors, vars, trunc, exponent=None, scale=1):
        parts = real(ring, factors, vars, trunc, exponent, scale)
        out[-1][3].append(parts)
        out[-1][:3] = [ring, vars, trunc]
        return parts

    monkeypatch.setattr(polytope, "unit_parts", recorded)
    for arr in _unit_edge_cases(a, b):
        out.append([None, None, None, []])
        genfun_via_polytopes(arr, (Fraction(1, 7), Fraction(1, 11)), 3,
                             mode=mode)
    monkeypatch.setattr(polytope, "unit_parts", real)
    return out


@pytest.mark.parametrize("mode, a, b", [
    ("exact", Fraction(1, 2), Fraction(1, 3)),
    ("numeric", GaussianRational(Fraction(1, 2), Fraction(1, 7)),
     GaussianRational(Fraction(1, 3), Fraction(-1, 5)))])
def test_one_lift_of_vertices_and_summands_is_their_sum(mode, a, b,
                                                        monkeypatch):
    # the parts that the full series lift together: the polytope vertices
    # (K = 0, 1 and 2 unit edges, weights |det| / index other than 1, and
    # Gaussian constants in numeric mode) and the summands of MIXED, with
    # and without singular factors.  Together they are the sum of their
    # lifts one by one: equal in exact mode, and at 128 bits within 2^-120
    # of the same parts lifted one by one at 256 bits, relative to the sum
    # of the sizes of those lifts (the summands cancel: a coefficient is
    # up to 2^14 times smaller than the sum of its parts' sizes, and the
    # 128-bit lifts one by one are no closer to it)
    sets = _vertex_part_sets(mode, a, b, monkeypatch)
    parts = [p for _, _, _, ps in sets for p in ps]
    assert {p.K for p in parts} == {0, 1, 2}
    assert any(p.scale != 1 for p in parts)
    ctx = EvaluationContext(MIXED, MIXED_Y, mode)
    trunc = Truncation(5)
    summands = build_summands(ctx)
    assert {bool(s.denominators) for s in summands} == {False, True}
    sets.append((ctx.ring, ctx.vars, trunc,
                 [genfun.summand_parts(ctx, s, trunc) for s in summands]))
    for ring, vars, trunc, parts in sets:
        got = genfun.lift_units(ring, vars, trunc, parts)
        if ring.exact:
            assert got.terms == \
                _lifted_one_by_one(ring, vars, trunc, parts).terms
            continue
        fine = NumericRing(256)
        want = _lifted_one_by_one(fine, vars, trunc, parts)
        sizes = {}
        for p in parts:
            for e, c in genfun.lift_units(fine, vars, trunc,
                                          [p]).terms.items():
                sizes[e] = sizes.get(e, 0) + abs(c)
        _assert_close(got, want, sizes=sizes)


@pytest.mark.parametrize("mode", ["exact", "numeric"])
@pytest.mark.parametrize("arr, y", [
    (MIXED, MIXED_Y),
    (triangle(Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)),
     (Fraction(1, 7), Fraction(2, 11))),
    (a2_directions(), (0, 0)),
    (Arrangement(3, [make_functional(d, c) for d, c in zip(
        ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)),
        (Fraction(1, 2), Fraction(1, 3), 0, Fraction(1, 5)))]),
     (Fraction(1, 7), Fraction(2, 11), Fraction(3, 13)))],
    ids=["mixed", "no_singular", "all_singular", "rank3"])
def test_full_series_is_the_sum_of_every_summand_form(arr, y, mode):
    # the one lift of the summands with no singular factor, plus the
    # Laurent reads of the others, is the sum of every summand's rational
    # form with all of them divided together: equal in exact mode, and
    # within 2^-100 relative of it at 128 bits
    order = 4
    ctx = EvaluationContext(arr, y, "exact")
    summands = build_summands(ctx)
    work = order + division_count(s.denominators for s in summands)
    want = with_truncation(_summed_at(ctx, summands, work), Truncation(order))
    assert want.terms
    got = generating_function(arr, y, order, mode=mode)
    if mode == "exact":
        assert got.terms == want.terms
    else:
        _assert_close(got, want, 100)


def test_full_series_lifts_its_plain_summands_once(monkeypatch):
    # the full series divides nothing: with sum_rational_forms,
    # divide_exact and division_count refused, it is built on MIXED, on
    # a2_directions at y = 0, where every summand is singular, and on B2,
    # in both modes.  The summands with no singular factor are lifted in
    # one lift_units call, which makes one ring.unit_lift: one call with
    # no singular summand, and the three plain summands of MIXED in one
    lifts, lifted = [], []
    real_lift = ExactRing.unit_lift
    real_lift_units = genfun.lift_units

    def counted_lift(self, series, den, K):
        lifts.append(len(series))
        return real_lift(self, series, den, K)

    def counted_lift_units(ring, vars, trunc, parts):
        lifted.append(len(parts))
        return real_lift_units(ring, vars, trunc, parts)

    def refused(*args, **kwargs):
        raise AssertionError("the full series divided")

    for module in (series_module, genfun):
        for name in ("sum_rational_forms", "divide_exact", "division_count"):
            monkeypatch.setattr(module, name, refused, raising=False)
    monkeypatch.setattr(ExactRing, "unit_lift", counted_lift)
    monkeypatch.setattr(genfun, "lift_units", counted_lift_units)
    for arr, y in ((triangle(Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)),
                    (Fraction(1, 7), Fraction(2, 11))),
                   (Arrangement(3, [make_functional(d, c) for d, c in zip(
                       ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 0)),
                       (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5),
                        Fraction(1, 7), Fraction(2, 9)))]),
                    (Fraction(1, 7), Fraction(2, 11), Fraction(3, 13)))):
        ctx = EvaluationContext(arr, y, "exact")
        assert len(build_summands(ctx)) > 2
        assert not any(s.denominators for s in build_summands(ctx))
        lifts.clear()
        assert generating_function(arr, y, 5, ctx=ctx).terms
        assert len(lifts) == 1
    for arr, y, order, plain in ((MIXED, MIXED_Y, 3, 3),
                                 (a2_directions(), (0, 0), 4, 0),
                                 (root_system("B2"), (0, 0), 4, 0)):
        summands = build_summands(EvaluationContext(arr, y))
        assert sum(not s.denominators for s in summands) == plain
        for mode in ("exact", "numeric"):
            lifted.clear()
            assert generating_function(arr, y, order, mode=mode).terms
            assert lifted == [plain]


@pytest.mark.parametrize("change", ["drop", "negate"])
@pytest.mark.parametrize("changed", range(6))
def test_mixed_series_without_one_summand_fails(changed, change,
                                                monkeypatch):
    # on MIXED (order 3) a singular summand dropped or negated leaves the
    # sum not holomorphic (NonDivisible), in both modes; a plain one is a
    # Taylor series, and the polytope route, which reads no summand, then
    # disagrees.  On a2_directions at y = 0 (order 4) every summand is
    # singular: the coefficient path misses these changes at k = (2, 1, 1),
    # and the full series, which reads every exponent through the order
    # with one entry -1, sees them
    real = genfun.build_summands

    def changed_summands(ctx):
        summands = real(ctx)
        s = summands[changed]
        return summands[:changed] + (
            [] if change == "drop"
            else [dataclasses.replace(s, weight=-s.weight)]) \
            + summands[changed + 1:]

    cases = [(MIXED, MIXED_Y, 3), (a2_directions(), (0, 0), 4)]
    for arr, y, order in cases:
        summands = real(EvaluationContext(arr, y))
        if changed >= len(summands):
            continue
        monkeypatch.setattr(genfun, "build_summands", changed_summands)
        if summands[changed].denominators:
            for mode in ("exact", "numeric"):
                with pytest.raises(NonDivisible):
                    generating_function(arr, y, order, mode=mode)
        else:
            from latticesums.polytope import polytope_report
            assert polytope_report(arr, y, order)["max_discrepancy"] \
                != "0 (exact)"
        monkeypatch.setattr(genfun, "build_summands", real)


def _gaussian_summand_cases():
    """(context, summand, k) for the non-singular summands of one
    arrangement with rational constants (exact mode) and one with a
    Gaussian unit constant (numeric mode)."""
    out = []
    y = (Fraction(1, 7), Fraction(2, 11))
    for mode, consts in (("exact", (Fraction(1, 3), Fraction(1, 5),
                                    Fraction(3, 7), Fraction(2, 9))),
                         ("numeric", GAUSSIAN_UNITS[1])):
        arr = Arrangement(2, [make_functional(d, c)
                              for d, c in zip(GAUSSIAN_UNITS[0], consts)])
        ctx = EvaluationContext(arr, y, mode)
        for k in ((2, 1, 1, 1), (1, 2, 3, 2)):
            for s in build_summands(ctx):
                if not s.degenerate_factors:
                    out.append((ctx, s, WeightVector.make(k)))
    return out


def test_unit_summand_integer_path_matches_the_dot_product():
    # per coset and degree one integer combination of the grid values,
    # lifted once, equals one ring product per term of the unit product:
    # equal in exact mode, within 2^-110 relative in numeric mode, where a
    # unit constant is Gaussian
    cases = _gaussian_summand_cases()
    modes = set()
    for ctx, s, k in cases:
        got, = genfun._unit_summand_value(ctx, s, [k.weights])
        want = termwise_unit_summand(ctx, s, k)
        modes.add(ctx.mode)
        if ctx.ring.exact:
            assert not want.is_zero() and got == want
        else:
            assert abs(got - want) <= CTX.mpf(2) ** -110 * abs(want)
    assert modes == {"exact", "numeric"}
    assert any(isinstance(den.c, GaussianRational)
               for ctx, s, _ in cases for _, den in s.unit_factors)


def _rational(dens):
    return st.sampled_from(dens).flatmap(
        lambda d: st.integers(-d, 2 * d).map(lambda n: Fraction(n, d)))


@st.composite
def _summand_arrangements(draw, rank, singular):
    """rank + 1 or rank + 2 functionals with rational constants; with
    `singular`, the last constant is set so that the last functional's
    denominator over a basis of the others has constant 0."""
    pool = [(1,), (-1,), (2,), (-3,)] if rank == 1 else \
        [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (-1, 2)]
    dirs = draw(st.lists(st.sampled_from(pool), min_size=rank + 1,
                         max_size=rank + 2))
    assume(intlinalg.rank(dirs[:-1]) == rank)
    consts = draw(st.lists(_rational((1, 2, 3, 4)), min_size=len(dirs),
                           max_size=len(dirs)))
    if singular:
        arr = Arrangement(rank, [make_functional(d, c)
                                 for d, c in zip(dirs, consts)])
        b = next(b for b in arr.bases if len(dirs) - 1 not in b.members)
        consts[-1] = sum(consts[m] * sum(Fraction(d) * e for d, e in
                                         zip(dirs[-1], b.dual(m)))
                         for m in b.members)
    return Arrangement(rank, [make_functional(d, c)
                              for d, c in zip(dirs, consts)])


def _coset_sum_reference(ctx, bidx, order):
    """The reference summand of basis bidx: the per-coset full-order
    references summed over its coset representatives."""
    forms = [full_order_summand(ctx, bidx, w, order)
             for w in ctx.arr.bases[bidx].coset_reps]
    num = forms[0].numerator
    for form in forms[1:]:
        assert [d.key for d in form.denominators] == \
            [d.key for d in forms[0].denominators]
        num = num + form.numerator
    return RationalForm(num, forms[0].denominators)


@pytest.mark.parametrize("singular", [False, True],
                         ids=["units", "singular"])
@pytest.mark.parametrize("rank", [1, 2])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_summand_builder_matches_full_order_reference(rank, singular, data):
    # every summand, built below `order` by one degree per t_g and shifted
    # once, equals the reference that multiplies every factor in at
    # `order` for each coset and sums the cosets: exactly in exact mode,
    # within 2^-100 in numeric mode
    arr = data.draw(_summand_arrangements(rank, singular))
    y = tuple(data.draw(st.lists(_rational((7, 11)), min_size=rank,
                                 max_size=rank)))
    ctx = EvaluationContext(arr, y, "exact")
    nctx = EvaluationContext(arr, y, "numeric", precision=128)
    summands = build_summands(ctx)
    if singular:
        assert any(s.degenerate_factors for s in summands)
    else:
        assume(not any(s.degenerate_factors for s in summands))
    tg_count = arr.size - rank
    ref_ctx = MPContext()
    ref_ctx.prec = 192
    for order in range(tg_count + 3):
        for s, ns in zip(summands, build_summands(nctx)):
            got = summand_rational_form(ctx, s, Truncation(order))
            if order < tg_count:
                assert got.numerator.is_zero()
            want = _coset_sum_reference(ctx, s.bidx, order)
            assert got.numerator.trunc == want.numerator.trunc
            assert got.numerator.terms == want.numerator.terms
            assert [d.key for d in got.denominators] == \
                [d.key for d in want.denominators]
            num = summand_rational_form(nctx, ns,
                                        Truncation(order)).numerator
            for e in set(num.terms) | set(want.numerator.terms):
                w = want.numerator.coefficient(e).embed(ref_ctx)
                err = abs(ref_ctx.mpc(num.coefficient(e)) - w)
                assert err <= 2.0 ** -100 * max(1, abs(w)), (order, e)


# every basis of these directions has index 3: (1,2), (2,1) and (1,-1)
# pairwise span a sublattice of index 3 in Z^2
COSET_HEAVY_DIRECTIONS = ((1, 2), (2, 1), (1, -1))


@st.composite
def _coset_heavy_arrangements(draw, singular):
    """COSET_HEAVY_DIRECTIONS with rational constants; with `singular`, the
    last constant makes the last functional's denominator over the basis
    of the first two singular."""
    dirs = COSET_HEAVY_DIRECTIONS
    consts = draw(st.lists(_rational((1, 2, 3, 5)), min_size=3, max_size=3))
    if singular:
        arr = Arrangement(2, [make_functional(d, c)
                              for d, c in zip(dirs, consts)])
        b = next(b for b in arr.bases if b.members == (0, 1))
        consts[2] = sum(consts[m] * sum(Fraction(d) * e for d, e in
                                        zip(dirs[2], b.dual(m)))
                        for m in b.members)
    arr = Arrangement(2, [make_functional(d, c)
                          for d, c in zip(dirs, consts)])
    assert all(b.index == 3 for b in arr.bases)
    return arr


def _close(mode, got, want):
    if mode == "exact":
        return got == want
    return abs(got - want) <= CTX.mpf(2) ** -100 * max(1, abs(want))


@pytest.mark.parametrize("singular", [False, True],
                         ids=["units", "singular"])
@pytest.mark.parametrize("mode", ["exact", "numeric"])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_basis_summand_is_its_coset_sum(mode, singular, data):
    # one summand per basis, equal to the sum over its three cosets of the
    # per-coset full-order reference; on a basis with no singular
    # denominator, its coefficient at k is the per-coset values summed
    arr = data.draw(_coset_heavy_arrangements(singular))
    y = tuple(data.draw(st.lists(_rational((7, 11)), min_size=2,
                                 max_size=2)))
    ctx = EvaluationContext(arr, y, mode)
    summands = build_summands(ctx)
    assert [s.bidx for s in summands] == list(range(len(arr.bases)))
    if singular:
        assert any(s.degenerate_factors for s in summands)
    else:
        assume(not any(s.degenerate_factors for s in summands))
    for s in summands:
        for order in range(4):
            got = summand_rational_form(ctx, s, Truncation(order))
            want = _coset_sum_reference(ctx, s.bidx, order)
            assert [d.key for d in got.denominators] == \
                [d.key for d in want.denominators]
            for e in set(got.numerator.terms) | set(want.numerator.terms):
                assert _close(mode, got.numerator.coefficient(e),
                              want.numerator.coefficient(e)), (order, e)
        if s.degenerate_factors:
            continue
        want = _coset_sum_reference(ctx, s.bidx, 4).numerator
        for k in itertools.product(range(3), repeat=arr.size):
            if sum(k) <= 4:
                got, = genfun._unit_summand_value(ctx, s, [k])
                assert _close(mode, got, want.coefficient(k)), k
    if not singular:
        k = (2, 1, 1)
        want = ctx.ring.zero()
        for s in summands:
            want = want + _coset_sum_reference(
                ctx, s.bidx, sum(k)).numerator.coefficient(k)
        got = coefficient(arr, y, k, ctx=ctx)
        assert _close(mode, got, want * ctx.ring.from_fraction(
            Fraction(math.prod(math.factorial(x) for x in k))))


@pytest.mark.parametrize("box", [None, (3, 2)], ids=["total", "box"])
def test_coset_grid_matches_rooted_kernel_products(box):
    # the root-free grid of each coset times its one root, summed over the
    # cosets, is exactly the coset sum of the products of the rooted kernel
    # series, on a basis of index 3 whose cosets carry non-integral phases
    arr = Arrangement(2, [make_functional(d, c) for d, c in zip(
        COSET_HEAVY_DIRECTIONS,
        (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)))])
    ctx = EvaluationContext(arr, (Fraction(1, 7), Fraction(1, 11)), "exact")
    ring, order = ctx.ring, 5
    trunc = Truncation(order) if box is None else Truncation(sum(box), box)
    bidx = next(i for i, b in enumerate(arr.bases) if b.index == 3)
    basis = arr.bases[bidx]
    vars = tuple(ctx.vars[m] for m in basis.members)
    grids = genfun._coset_grids(ctx, bidx, trunc)
    assert len(grids) == 3 and any(root is not None for _, root in grids)
    got = TruncatedSeries(ring, vars, trunc)
    for grid, root in grids:
        got = got + TruncatedSeries(ring, vars, trunc, {
            e: a if root is None else a * root for e, a in grid.items()})
    want = TruncatedSeries(ring, vars, trunc)
    for w in basis.coset_reps:
        prod = TruncatedSeries.one(ring, vars, trunc)
        for m in basis.members:
            params = KernelParams.make(ctx.constant(m), ctx.yhat(bidx, w, m))
            prod = prod * with_truncation(kernel_series(
                ring, params, order, ctx.vars[m], vars), trunc)
        want = want + prod
    assert len(want.terms) > order
    assert got.terms == want.terms


def test_basis_summand_factors_built_once_per_basis(monkeypatch):
    # each build expands all of a basis's unit factors, live and
    # collapsed, in one integer product (``_unit_numerators``, under
    # ``unit_parts`` or read directly), not once per coset or per factor;
    # the unit path reads its product on the box with no series product;
    # the kernels are read once per (coset, member) through the one
    # accessor, their root-free parts built once per parameters and order
    # and their B_k(lam) / k! once per (b, order) in the context
    arr = Arrangement(2, [make_functional(d, c) for d, c in zip(
        COSET_HEAVY_DIRECTIONS + ((1, 0),),
        (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(2, 7)))])
    assert any(b.index == 3 for b in arr.bases)
    y = (Fraction(1, 7), Fraction(1, 11))
    products, reads, bases, parts, muls = [], [], [], [], []
    real_parts = EvaluationContext.kernel
    real_product = genfun._unit_numerators
    real_mul = TruncatedSeries.__mul__

    def counted_product(factors, vars, trunc):
        products.append((len(factors), trunc))
        return real_product(factors, vars, trunc)

    def counted_read(self, bidx, w, member, order):
        reads.append((bidx, w, member))
        return real_parts(self, bidx, w, member, order)

    def counted_base(ring, p, order):
        bases.append((None if p.integral else p.b, order))
        return kernel_base(ring, p, order)

    def counted_parts(ring, p, order, base):
        parts.append((p, order))
        return kernel_parts(ring, p, order, base)

    def counted_mul(a, b):
        muls.append((a, b))
        return real_mul(a, b)

    monkeypatch.setattr(genfun, "_unit_numerators", counted_product)
    monkeypatch.setattr(EvaluationContext, "kernel", counted_read)
    monkeypatch.setattr(genfun, "kernel_base", counted_base)
    monkeypatch.setattr(genfun, "kernel_parts", counted_parts)
    ctx = EvaluationContext(arr, y, "exact")
    k = WeightVector.make((2, 1, 1, 2))
    for s in build_summands(ctx):
        b = arr.bases[s.bidx]
        assert not s.degenerate_factors
        units = len(s.unit_factors)
        assert units == 2
        pairs = sorted((s.bidx, w, m) for w in b.coset_reps
                       for m in b.members)
        box = tuple(k.weights[m] for m in b.members)
        # the (factor count, truncation) of each build's unit products:
        # below the order by one degree per live t_g
        for build, want in (
                (lambda: summand_rational_form(ctx, s, Truncation(4)),
                 [(units, Truncation(4 - units))]),
                (lambda: genfun._unit_summand_value(ctx, s, [k.weights]),
                 [(units, Truncation(sum(box), box))])):
            products.clear()
            reads.clear()
            build()
            assert products == want
            assert sorted(reads) == pairs
        monkeypatch.setattr(TruncatedSeries, "__mul__", counted_mul)
        muls.clear()
        genfun._unit_summand_value(ctx, s, [k.weights])
        monkeypatch.setattr(TruncatedSeries, "__mul__", real_mul)
        assert muls == []
    assert parts and len(parts) == len(set(parts))
    assert bases and len(bases) == len(set(bases))


@pytest.mark.parametrize("arr", [a2_directions(),
                                 triangle(Fraction(1, 2), Fraction(1, 3),
                                          Fraction(1, 5))],
                         ids=["a2_directions", "triangle_rational"])
def test_summand_builder_multiplies_no_monomial(arr, generic_y2,
                                                monkeypatch):
    # each t_g is applied as an exponent shift, never as a series product
    # with a one-term factor
    real = TruncatedSeries.__mul__

    def no_monomial(a, b):
        assert len(a.terms) != 1 and len(b.terms) != 1, (a, b)
        return real(a, b)

    monkeypatch.setattr(TruncatedSeries, "__mul__", no_monomial)
    ctx = EvaluationContext(arr, generic_y2, "exact")
    for s in build_summands(ctx):
        assert not summand_rational_form(
            ctx, s, Truncation(5)).numerator.is_zero()
    assert not ctx.ring.is_zero(coefficient(arr, generic_y2, (2, 2, 2)))


# ---------------------------------------------------------------------------
# evaluation contexts and the coefficient table
# ---------------------------------------------------------------------------


def test_context_for_another_arrangement_or_y_is_rejected(
        a1_alpha1, triangle_rational):
    ctx = EvaluationContext(a1_alpha1, (Fraction(0),), "exact")
    a1_alpha2 = hurwitz_a1(2)
    calls = [
        lambda: lattice_sum_value(a1_alpha2, [Fraction(1, 3)], (2, 2, 2),
                                  ctx=ctx),
        lambda: lattice_sum_value(a1_alpha1, [Fraction(1, 3)], (2, 2, 2),
                                  ctx=ctx),
        lambda: coefficient(a1_alpha2, [0], (2, 2, 2), ctx=ctx),
        lambda: generating_function(a1_alpha1, [Fraction(1, 2)], 3, ctx=ctx),
        lambda: lattice_sum_value(a2_directions(), [0, 0], (2, 2, 2),
                                  ctx=ctx),
        lambda: zeta_from_S(a1_alpha2, (2, 2, 2), 2, ctx=ctx),
        lambda: genfun_via_polytopes(a1_alpha2, [Fraction(1, 3)], 3,
                                     ctx=ctx),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="context was built for"):
            call()
    # an equal arrangement and an equal y, given as other objects, agree
    rep = lattice_sum_value(hurwitz_a1(1), [0.0], (2, 2, 2), ctx=ctx)
    assert format_scalar(rep.value) == "pi^2/2 - 39/8"

    # a context fixes the mode, the precision and phi; a setting given
    # next to it used to be dropped, so that a numeric request returned an
    # exact value and another phi was read at the context's
    arr, y = triangle_rational, (Fraction(1, 7), Fraction(2, 11))
    ctx = EvaluationContext(arr, y, "exact")
    zeta_arr = a2_directions()
    zeta_ctx = EvaluationContext(zeta_arr, (0, 0), "exact")
    others = [dict(mode="numeric"), dict(precision=64)]
    with_phi = others + [dict(phi=later_phi(arr))]
    calls = [
        (lambda kw: lattice_sum_value(arr, y, (2, 2, 2), ctx=ctx, **kw),
         with_phi),
        (lambda kw: coefficient(arr, y, (2, 2, 2), ctx=ctx, **kw), with_phi),
        (lambda kw: generating_function(arr, y, 2, ctx=ctx, **kw), with_phi),
        (lambda kw: genfun_via_polytopes(arr, y, 2, ctx=ctx, **kw), others),
        (lambda kw: zeta_from_S(zeta_arr, (2, 2, 2), ctx=zeta_ctx, **kw),
         others),
    ]
    for call, settings in calls:
        for kw in settings:
            with pytest.raises(ValueError, match="context was built with"):
                call(kw)
    # with none of the settings, or with its own, a context evaluates
    want = lattice_sum_value(arr, y, (2, 2, 2)).value
    for kw in ({}, dict(mode="exact", precision=128, phi=ctx.phi)):
        assert lattice_sum_value(arr, y, (2, 2, 2), ctx=ctx,
                                 **kw).value == want
    assert format_scalar(zeta_from_S(zeta_arr, (2, 2, 2), ctx=zeta_ctx,
                                     mode="exact")) == "pi^6/2835"


class _Miss(Exception):
    pass


def _raise_miss(ctx, k):
    raise _Miss


def _table_leaves(x):
    """Every value reachable from x through containers and dataclasses."""
    if isinstance(x, (tuple, list)):
        for v in x:
            yield from _table_leaves(v)
    elif isinstance(x, dict):
        for e in x.items():
            yield from _table_leaves(e)
    elif dataclasses.is_dataclass(x):
        for f in dataclasses.fields(x):
            yield from _table_leaves(getattr(x, f.name))
    else:
        yield x


def test_coefficient_table_serves_equal_data(monkeypatch, generic_y2):
    real = genfun._coefficient_components
    consts = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))
    exact = dict(mode="exact", precision=128, y=generic_y2, k=(2, 1, 2),
                 phi=None, consts=consts)
    numeric = dict(exact, mode="numeric")

    def evaluate(mode, precision, y, k, phi, consts):
        # a new Arrangement object on every call
        arr = triangle(*consts)
        return coefficient(arr, y, k, mode=mode, precision=precision,
                           phi=phi and later_phi(arr, skip=phi))

    for base, changes in [
            (exact, [dict(mode="numeric"),
                     dict(y=(generic_y2[0], Fraction(2, 11))),
                     dict(k=(1, 2, 2)),
                     dict(phi=1),
                     dict(consts=(Fraction(1, 2), Fraction(1, 3),
                                  Fraction(2, 5)))]),
            (numeric, [dict(precision=100)])]:
        monkeypatch.setattr(genfun, "_coefficient_components", real)
        want = evaluate(**base)
        monkeypatch.setattr(genfun, "_coefficient_components", _raise_miss)
        assert evaluate(**base) == want
        for change in changes:
            with pytest.raises(_Miss):
                evaluate(**dict(base, **change))
    assert len(genfun._coefficient_table) == 2
    for key, stored in genfun._coefficient_table.items():
        for leaf in _table_leaves((key, stored)):
            assert isinstance(leaf, (int, str, Fraction, type(None))), leaf


def test_coefficient_table_stores_nothing_on_failure(monkeypatch, a1_alpha1):
    monkeypatch.setattr(genfun, "_coefficient_components", _raise_miss)
    with pytest.raises(_Miss):
        lattice_sum_value(a1_alpha1, [0], (2, 2, 2))
    assert not genfun._coefficient_table


def test_coefficient_table_drops_the_least_recently_used(monkeypatch,
                                                        a1_alpha1):
    monkeypatch.setattr(genfun, "COEFFICIENT_TABLE_SIZE", 2)
    first = coefficient(a1_alpha1, [0], (2, 2, 2))
    coefficient(a1_alpha1, [0], (2, 2, 4))
    assert coefficient(a1_alpha1, [0], (2, 2, 2)) == first
    coefficient(a1_alpha1, [0], (4, 2, 2))
    assert len(genfun._coefficient_table) == 2
    monkeypatch.setattr(genfun, "_coefficient_components", _raise_miss)
    assert coefficient(a1_alpha1, [0], (2, 2, 2)) == first
    with pytest.raises(_Miss):
        coefficient(a1_alpha1, [0], (2, 2, 4))


# ---------------------------------------------------------------------------
# the arrangement table
# ---------------------------------------------------------------------------


def test_manifest_rows_enumerate_bases_once_per_direction_list(monkeypatch):
    calls = []
    real = lattice.enumerate_bases

    def counted(arr):
        calls.append(tuple(f.direction for f in arr.functionals))
        return real(arr)

    monkeypatch.setattr(lattice, "enumerate_bases", counted)
    fixtures = resources.files("latticesums.fixtures")
    rows = json.loads(fixtures.joinpath("manifest.json").read_text())["rows"]
    assert len(rows) == 14
    for row in rows:
        # a new Arrangement object per row, as reproduce-examples reads it
        arr = lattice.arrangement_from_json(
            fixtures.joinpath(row["arrangement"]).read_text())
        if row["kind"] == "S":
            value = lattice_sum_value(arr, [Fraction(v) for v in row["y"]],
                                      row["k"]).value
        else:
            value = zeta_from_S(arr, row["k"], row["symmetry_factor"])
        assert format_scalar(value) == row["expect"], row["label"]
    assert len(calls) == len(set(calls)) == 3


def test_equal_directions_share_bases_not_constants(generic_y2):
    first = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))
    second = (Fraction(1, 3), Fraction(1, 4), Fraction(2, 7))
    k = (2, 1, 2)
    arr1, arr2 = triangle(*first), triangle(*second)
    warm1 = lattice_sum_value(arr1, generic_y2, k).value
    warm2 = lattice_sum_value(arr2, generic_y2, k).value
    assert arr1.bases is arr2.bases
    ctx1 = EvaluationContext(arr1, generic_y2)
    ctx2 = EvaluationContext(arr2, generic_y2)
    assert ctx1.data is ctx2.data
    for bidx in range(len(arr1.bases)):
        forms1, forms2 = ctx1.geometry(bidx), ctx2.geometry(bidx)
        assert [(g, f.coeffs) for g, f in forms1.items()] == \
            [(g, f.coeffs) for g, f in forms2.items()]
        assert [f.c for f in forms1.values()] != \
            [f.c for f in forms2.values()]
    # a cold table, and new arrangement objects, give the same values
    for consts, warm in ((second, warm2), (first, warm1)):
        lattice.clear_arrangement_table()
        clear_coefficient_table()
        assert lattice_sum_value(triangle(*consts), generic_y2, k).value \
            == warm


# directions in rank 2 and 3, and constants: zero, real, Gaussian and a
# Gaussian one with no imaginary part, read as real
TABLE_DIRECTIONS = {
    2: [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2), (-1, 2)],
    3: [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 1, 1),
        (1, -1, 2), (2, 0, 1)]}
TABLE_CONSTANTS = [0, Fraction(1, 2), Fraction(-1, 3), 1,
                   GaussianRational(Fraction(1, 3), Fraction(-1, 2)),
                   GaussianRational(Fraction(1, 2), Fraction(0))]


def _form_data(form):
    """Everything a form is read by: its coefficients, denominator,
    constant (with its type), key, singularity and pivot."""
    return (form.coeffs, form.den, type(form.c), form.c, form.key,
            form.singular, form.pivot if form.coeffs else None)


@pytest.mark.parametrize("rank", [2, 3])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_table_forms_match_the_fraction_builder(rank, data):
    # every den_g (``geometry``) and U_g (``_dead_unit``), built from the
    # arrangement table's relative forms over integers, equals the
    # Fraction builder combination(relative_form(...)), for real and
    # Gaussian constants
    pool = TABLE_DIRECTIONS[rank]
    dirs = data.draw(st.lists(st.sampled_from(pool), min_size=rank + 1,
                              max_size=rank + 2))
    assume(intlinalg.rank(dirs) == rank)
    consts = data.draw(st.lists(st.sampled_from(TABLE_CONSTANTS),
                                min_size=len(dirs), max_size=len(dirs)))
    arr = Arrangement(rank, [make_functional(d, c)
                             for d, c in zip(dirs, consts)])
    ctx = EvaluationContext(arr, (Fraction(1, 7),) * rank, "numeric")
    for bidx in range(len(arr.bases)):
        got, want = ctx.geometry(bidx), fraction_geometry(ctx, bidx)
        assert got.keys() == want.keys()
        for g, form in got.items():
            assert _form_data(form) == _form_data(want[g])
            assert _form_data(genfun._dead_unit(ctx, bidx, g, form)) == \
                _form_data(fraction_dead_unit(ctx, g, want[g]))


def test_non_default_phi_reads_its_own_branches():
    # at y = 0 every <y + w, f^B> is an integer, so each fractional part
    # takes its branch; phi = (1, 1) and (1, 3) disagree on two of them
    arr = Arrangement(2, [make_functional((1, 0), Fraction(1, 2)),
                          make_functional((0, 1), Fraction(1, 2)),
                          make_functional((1, 2), 0)])
    y = (Fraction(0), Fraction(0))
    phi0, phi1 = choose_phi(arr), later_phi(arr)
    assert (phi0.phi, phi1.phi) == ((1, 1), (1, 3))
    yhats = {}
    for phi in (phi0, phi1):
        ctx = EvaluationContext(arr, y, phi=phi)
        yhats[phi] = [ctx.yhat(bidx, w, m)
                      for bidx, b in enumerate(arr.bases)
                      for w in b.coset_reps for m in b.members]
        assert yhats[phi] == [frac_part(y, w, b, m, phi)
                              for b in arr.bases
                              for w in b.coset_reps for m in b.members]
        # the sum does not depend on phi, only its summands do
        assert format_scalar(lattice_sum_value(arr, y, (1, 2, 2),
                                               phi=phi).value) == \
            "2*pi^4/9 - 4*pi^3/27 - 40*pi^2/27 - 32*pi/27"
        clear_coefficient_table()
    assert yhats[phi0] != yhats[phi1]


def test_a_callers_phi_must_be_generic():
    # (1, 1) is orthogonal to the dual (1, -1) of the basis {(1,0), (1,1)},
    # where it picks no side; it used to end in NonDivisible, reported as
    # an internal failure
    arr = a2_directions()
    with pytest.raises(ValueError, match=r"phi \(1, 1\) is not generic"):
        lattice_sum_value(arr, (0, 0), (2, 2, 2),
                          phi=lattice.GenericDirection((1, 1)))
    for phi in (None, choose_phi(arr), later_phi(arr)):
        assert format_scalar(lattice_sum_value(arr, (0, 0), (2, 2, 2),
                                               phi=phi).value) \
            == "2*pi^6/945"
    # a phi of another length was read truncated, or refused as not
    # generic
    for phi in ((1, 2, 5), (1,)):
        message = f"phi {phi} has length {len(phi)}, not the rank 2"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            lattice_sum_value(arr, (0, 0), (2, 2, 2),
                              phi=lattice.GenericDirection(phi))


def test_numeric_mode_refuses_precision_below_24_bits(triangle_rational):
    # at 12 bits the zero tolerance 2^(12 - 12) = 1 read every term as
    # zero, and the value came back as 0
    y = (Fraction(1, 7), Fraction(2, 11))
    for precision in (12, 23):
        with pytest.raises(ValueError, match="at least 24 bits"):
            lattice_sum_value(triangle_rational, y, (2, 2, 2),
                              mode="numeric", precision=precision)
    low, ref = (complex(lattice_sum_value(triangle_rational, y, (2, 2, 2),
                                          mode="numeric",
                                          precision=p).value)
                for p in (24, 128))
    assert abs(ref - (1023.65 - 48.59j)) < 0.01
    assert abs(low - ref) < 1e-6 * abs(ref)


# ---------------------------------------------------------------------------
# excluded points and error surfaces
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", [(2.9, 2, 2), (2.0, 2, 2), (True, 2, 2),
                               ("2", 2, 2), (Fraction(2), 2, 2)])
def test_weights_must_be_integers(k, a1_alpha1):
    # int() would read 2.9 as 2 and give the value at k = (2, 2, 2)
    with pytest.raises(ValueError, match="integers"):
        WeightVector.make(k)
    with pytest.raises(ValueError, match="integers"):
        lattice_sum_value(a1_alpha1, [0], k)


def test_weights_accept_integers(a1_alpha1):
    assert WeightVector.make([2, 0, 3]).weights == (2, 0, 3)
    with pytest.raises(ValueError, match="nonnegative"):
        WeightVector.make([2, -1, 3])


def test_excluded_point_names_functional():
    arr = Arrangement(2, [make_functional((1, 0), 0),
                          make_functional((0, 1), 0),
                          make_functional((0, 2), 1)])
    with pytest.raises(ExcludedPoint) as err:
        lattice_sum_value(arr, (Fraction(0), Fraction(1, 3)), (1, 2, 2))
    assert err.value.functional == 0
    # weight 2 on the indispensable functional is fine
    rep = lattice_sum_value(arr, (Fraction(0), Fraction(1, 3)), (2, 2, 2))
    assert rep.value is not None


def test_numeric_mode_excluded_point_warns():
    import warnings as _w
    arr = Arrangement(2, [make_functional((1, 0), 0),
                          make_functional((0, 1), 0),
                          make_functional((0, 2), 1)])
    with _w.catch_warnings(record=True) as caught:
        _w.simplefilter("always")
        rep = lattice_sum_value(arr, (Fraction(0), Fraction(1, 3)),
                                (1, 2, 2), mode="numeric")
    assert any("does not converge" in str(c.message) for c in caught)
    assert rep.value is not None


def test_generating_function_excluded_check():
    # the series is defined on an excluded hyperplane too, every
    # fractional part taken on the side of phi; only the sum at weight one
    # diverges there, which lattice_sum_value alone refuses
    arr = Arrangement(2, [make_functional((1, 0), 0),
                          make_functional((0, 1), 0),
                          make_functional((0, 2), 1)])
    y = (Fraction(0), Fraction(1, 3))
    assert lattice.on_excluded_hyperplanes(y, arr)
    F = generating_function(arr, y, 6)
    for k in [(2, 2, 2), (1, 2, 2), (2, 1, 2), (3, 2, 1)]:
        fact = math.prod(math.factorial(kf) for kf in k)
        assert F.coefficient(k) * F.ring.from_fraction(Fraction(fact)) \
            == coefficient(arr, y, k)


# ---------------------------------------------------------------------------
# numeric mode
# ---------------------------------------------------------------------------


def test_numeric_mode_matches_embedding(a1_alpha1):
    rep_e = lattice_sum_value(a1_alpha1, (Fraction(0),), (2, 2, 2))
    rep_n = lattice_sum_value(a1_alpha1, (Fraction(0),), (2, 2, 2),
                              mode="numeric", precision=128)
    assert abs(complex(rep_n.value) - emb(rep_e.value)) < 1e-30


def test_numeric_mode_complex_constants():
    arr = Arrangement(1, [make_functional((1,), 0.25 + 0.1j)])
    rep = lattice_sum_value(arr, (Fraction(1, 3),), (2,), mode="numeric")
    z = truncated_sum(arr, (2,), (Fraction(1, 3),), TruncationWindow(4000),
                      precision=80)
    assert abs(complex(rep.value) - complex(z)) < 1e-4


@pytest.mark.parametrize("im, precision", [(13, 128), (6, 64)])
def test_numeric_kernel_with_large_imaginary_constant(im, precision):
    # for b = beta + i gamma the root e^{-2 pi i b y} has modulus
    # e^{2 pi gamma y}: the root-free parts are about e^{-2 pi gamma}, below
    # the absolute zero tolerance, while the coefficients are not, so the
    # kernel and the unit path keep every coefficient that kernel_series
    # keeps
    arr = Arrangement(2, [
        make_functional((1, 0), GaussianRational(Fraction(1, 3), im)),
        make_functional((1, 2), Fraction(1, 5))])
    ctx = EvaluationContext(arr, (Fraction(9, 10), Fraction(1, 7)),
                            "numeric", precision)
    (s,) = build_summands(ctx)
    assert not s.unit_factors and len(arr.bases[0].coset_reps) == 2
    ring, order = ctx.ring, 4
    want = {}
    for w in arr.bases[0].coset_reps:
        kernels = []
        for m in (0, 1):
            p = KernelParams.make(ctx.constant(m), ctx.yhat(0, w, m))
            kernels.append(kernel_series(ring, p, order))
            parts, q = ctx.kernel(0, w, m, order)
            assert rooted_series(ring, parts, q, order, "t").terms \
                == kernels[-1].terms
        for (i,), a in kernels[0].terms.items():
            for (j,), c in kernels[1].terms.items():
                want[i, j] = want.get((i, j), ring.zero()) + a * c
    assert len(want) > 2 * order
    assert max(abs(v) for v in want.values()) > 2.0 ** (40 - precision)
    for e in itertools.product(range(order + 1), repeat=2):
        got, = genfun._unit_summand_value(ctx, s, [e])
        ref = ring.scale(want.get(e, ring.zero()), s.weight)
        # the phases of a complex b are complex doubles, one per kernel in
        # kernel_series and one sum per coset here, so the two agree to
        # about 2 pi |Im q| 2^-53 relative
        assert abs(got - ref) <= (2.0 ** -40 * abs(ref)
                                  + 2.0 ** (16 - precision))


def test_numeric_mode_singular_case_is_exact_structure():
    # (2,1) = (1,1) + (1,0) and -1/3 = -1/3 + 0: a singular hyperplane,
    # which constants rounded to 53 bits turn into a tiny unit factor
    arr = Arrangement(2, [make_functional((2, 1), Fraction(-1, 3)),
                          make_functional((1, 1), Fraction(-1, 3)),
                          make_functional((1, 0), 0),
                          make_functional((-1, 2), Fraction(-1, 2))])
    y = (Fraction(-10, 7), Fraction(-8, 7))
    k = (2, 2, 2, 2)
    exact = lattice_sum_value(arr, y, k).value
    numeric = lattice_sum_value(arr, y, k, mode="numeric",
                                precision=128).value
    ref = MPContext()
    ref.prec = 192
    want = exact.embed(ref)
    err = abs(ref.mpc(numeric) - want) / max(ref.mpf(1), abs(want))
    assert err < ref.mpf(2) ** -80


def test_numeric_mode_takes_a_tiny_unit_constant_as_a_unit():
    # 1/3 + 1/5 = 8/15: at 8/15 + 2^-120 the combination t_2 - t_0 - t_1
    # has the constant 2^-120, nonzero but below any tolerance that rounds
    # it at 128 bits; it is a unit, and numeric mode evaluates it as one
    y = (Fraction(1, 7), Fraction(2, 11))
    on = triangle(Fraction(1, 3), Fraction(1, 5), Fraction(8, 15))
    near = triangle(Fraction(1, 3), Fraction(1, 5),
                    Fraction(8, 15) + Fraction(1, 2 ** 120))

    def singular_keys(ctx):
        return {d.key for s in build_summands(ctx) for d in s.denominators}

    assert len(singular_keys(EvaluationContext(on, y, "numeric"))) == 1
    ctx = EvaluationContext(near, y, "numeric", precision=128)
    assert len(singular_keys(ctx)) == 0
    rep = lattice_sum_value(near, y, (2, 2, 2), ctx=ctx)
    assert division_count(s.denominators for s in build_summands(ctx)) == 0
    assert CTX.isfinite(rep.value)


@pytest.mark.parametrize("y", [(0, 0), (0.0, 0.0), (Fraction(0), 0.0)])
def test_numeric_mode_keeps_int_and_float_shifts_exact(y):
    # a float y used to round the kernel constants b = <y, f^B> to 53 bits
    arr = hurwitz_a2(Fraction(1, 3))
    k = (2,) * 9
    ref = MPContext()
    ref.prec = 256
    want = lattice_sum_value(arr, (Fraction(0), Fraction(0)), k).value \
        .embed(ref)
    for precision, bits in ((128, 80), (200, 150)):
        got = lattice_sum_value(arr, y, k, mode="numeric",
                                precision=precision).value
        assert abs(ref.mpc(got) - want) <= ref.mpf(2) ** -bits * abs(want)


# ---------------------------------------------------------------------------
# zeta values: the symmetry factor
# ---------------------------------------------------------------------------


def _constants_zero(*directions):
    return Arrangement(len(directions[0]),
                       [make_functional(d, 0) for d in directions])


# the positive coroots of B2, G2, A3, B3, C3 and A4 in the basis of
# fundamental weights
B2 = ((1, 0), (0, 1), (1, 1), (1, 2))
G2 = ((1, 0), (0, 1), (1, 1), (1, 2), (1, 3), (2, 3))
A3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 1, 1))
B3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (0, 2, 1),
      (1, 1, 1), (1, 2, 1), (2, 2, 1))
C3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 1, 1),
      (0, 1, 2), (1, 1, 2), (1, 2, 2))
A4 = ((1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 0), (1, 1, 1, 1),
      (0, 1, 0, 0), (0, 1, 1, 0), (0, 1, 1, 1), (0, 0, 1, 0),
      (0, 0, 1, 1), (0, 0, 0, 1))


def test_root_system_arrangements():
    assert root_system("A2").functionals == a2_directions().functionals
    for name, directions in (("B2", B2), ("G2", G2), ("A3", A3),
                             ("B3", B3), ("C3", C3), ("A4", A4)):
        assert root_system(name).functionals \
            == _constants_zero(*directions).functionals
    for name in ("A1", "b2", "E8"):
        with pytest.raises(ValueError, match="unknown root system"):
            root_system(name)


def test_symmetry_factor_of_the_shipped_families():
    assert _symmetry_factor(hurwitz_a1(2), WeightVector.make((2, 2, 2))) \
        == 2
    assert _symmetry_factor(a2_directions(), WeightVector.make((2, 2, 2))) \
        == 6
    # the constant 1/3 leaves the wall v_2 = 0 in the sum
    with pytest.raises(ValueError, match="wall"):
        _symmetry_factor(triangle(0, Fraction(1, 3), 0),
                         WeightVector.make((2, 2, 2)))
    # with these weights v -> -v changes S, and the negative half-line
    # is left out of the orbit
    for k in ((2, 2, 4), (3, 3, 3)):
        with pytest.raises(ValueError, match="to 1 of the 2 regions"):
            _symmetry_factor(hurwitz_a1(1), WeightVector.make(k))


@pytest.mark.parametrize("directions, factor", [(G2, 12), (A3, 24)])
def test_symmetry_factor_of_root_systems(directions, factor):
    # the rule alone, with no S evaluated: |W| regions, one orbit
    arr = _constants_zero(*directions)
    assert _symmetry_factor(arr, WeightVector.make((2,) * len(directions))) \
        == factor


def test_zeta_without_a_factor_given():
    a2 = _constants_zero((1, 0), (0, 1), (1, 1))
    assert format_scalar(zeta_from_S(a2, (2, 2, 2))) == "pi^6/2835"
    b2 = root_system("B2")
    assert format_scalar(lattice_sum_value(b2, (0, 0), (2,) * 4).value) \
        == "pi^8/37800"
    assert format_scalar(zeta_from_S(b2, (2,) * 4)) == "pi^8/302400"
    assert format_scalar(zeta_from_S(b2, (2,) * 4, 8)) == "pi^8/302400"


def test_a3_zeta_value():
    # Zagier's zeta(2, ..., 2; A3) = 23 pi^12 / 2554051500, S over 24
    a3 = root_system("A3")
    assert format_scalar(lattice_sum_value(a3, (0,) * 3, (2,) * 6).value) \
        == "46*pi^12/212837625"
    assert format_scalar(zeta_from_S(a3, (2,) * 6, 24)) \
        == "23*pi^12/2554051500"


def test_g2_zeta_value():
    # zeta(2, ..., 2; G2) = 23 pi^12 / 297904566960, S over 12, within 2 s
    # of CPU time
    start = time.process_time()
    g2 = root_system("G2")
    assert format_scalar(lattice_sum_value(g2, (0, 0), (2,) * 6).value) \
        == "23*pi^12/24825380580"
    assert format_scalar(zeta_from_S(g2, (2,) * 6)) \
        == "23*pi^12/297904566960"
    assert time.process_time() - start <= 2


@pytest.mark.parametrize("name, factor, S, zeta", [
    ("B3", 48, "19*pi^18/175064906016000", "19*pi^18/8403115488768000"),
    ("C3", 48, "19*pi^18/175064906016000", "19*pi^18/8403115488768000"),
    ("A4", 120, "8*pi^20/43398001040625", "pi^20/650970015609375")],
    ids=["B3", "C3", "A4"])
def test_rank_three_and_four_zeta_values(name, factor, S, zeta):
    # S at k = 2 and zeta(2, ..., 2) = S / |W|, each root system within
    # 10 s of CPU time
    start = time.process_time()
    arr = root_system(name)
    k = (2,) * arr.size
    assert format_scalar(lattice_sum_value(arr, (0,) * arr.rank, k).value) \
        == S
    assert _symmetry_factor(arr, WeightVector.make(k)) == factor
    assert format_scalar(zeta_from_S(arr, k)) == zeta
    assert time.process_time() - start <= 10


def test_b3_value_against_the_truncated_sum():
    # the sum over the box |v_j| <= 20 falls short of B3's exact S by
    # 1.4e-7 relative
    arr = root_system("B3")
    k = (2,) * arr.size
    exact = complex(lattice_sum_value(arr, (0, 0, 0), k).value.embed(CTX))
    z = complex(truncated_sum(arr, k, (0, 0, 0), TruncationWindow(20)))
    assert 0 < (exact - z).real <= 2e-7 * abs(exact)
    assert abs((exact - z).imag) <= 1e-15 * abs(exact)


@pytest.mark.parametrize("name, y, want", [
    ("A3", (Fraction(1, 2), Fraction(1, 3), 0),
     "611293829*pi^12/19304215939008000"),
    ("G2", (Fraction(1, 3), Fraction(1, 4)),
     "3755201323*pi^12/25302421915576565760")])
def test_twisted_root_system_values(name, y, want):
    # S at k = 2 off y = 0, within 2 s of CPU time, and the 128-bit value
    # within 1e-25 relative of the exact one
    start = time.process_time()
    arr = root_system(name)
    k = (2,) * arr.size
    exact = lattice_sum_value(arr, y, k).value
    assert format_scalar(exact) == want
    assert time.process_time() - start <= 2
    got = lattice_sum_value(arr, y, k, mode="numeric").value
    want = exact.embed(CTX256)
    assert abs(CTX256.mpc(got) - want) <= 1e-25 * abs(want)


def test_twisted_root_system_full_series():
    # the full series of G2 at (1/3, 1/4) through order 4 reads its
    # singular summands with no division, within 2 s of CPU time in each
    # mode: the exact series is the constant 1, and the 128-bit one is
    # within 2^-100 of it; B2's full series agrees with the polytope route
    # there
    arr, y = root_system("G2"), (Fraction(1, 3), Fraction(1, 4))
    assert any(s.denominators for s in build_summands(
        EvaluationContext(arr, y)))
    series = {}
    for mode in ("exact", "numeric"):
        start = time.process_time()
        series[mode] = generating_function(arr, y, 4, mode=mode)
        assert time.process_time() - start <= 2, mode
    assert series["exact"].dump() == "(0, 0, 0, 0, 0, 0) : 1"
    _assert_close(series["numeric"], series["exact"], 100)
    from latticesums.polytope import polytope_report
    assert polytope_report(root_system("B2"), y, 4)["max_discrepancy"] \
        == "0 (exact)"


def test_coefficient_path_makes_no_division(monkeypatch):
    # a singular manifest row is a sum of per-summand reads: no sum of
    # rational forms and no division is made
    def refuse(*args, **kwargs):
        raise AssertionError("the coefficient path divided")

    for module, name in ((series_module, "sum_rational_forms"),
                         (series_module, "divide_exact"),
                         (genfun, "sum_rational_forms")):
        monkeypatch.setattr(module, name, refuse)
    fixtures = resources.files("latticesums.fixtures")
    row = next(r for r in json.loads(fixtures.joinpath(
        "manifest.json").read_text())["rows"]
        if r["arrangement"] == "a2_alpha2.json")
    arr = lattice.arrangement_from_json(
        fixtures.joinpath(row["arrangement"]).read_text())
    y = tuple(Fraction(v) for v in row["y"])
    ctx = EvaluationContext(arr, y, "exact")
    assert any(s.degenerate_factors for s in build_summands(ctx))
    assert format_scalar(lattice_sum_value(arr, y, row["k"]).value) \
        == row["expect"]


def test_zeta_rejects_a_zero_weight_and_a_wrong_factor():
    with pytest.raises(ValueError, match="positive"):
        zeta_from_S(a2_directions(), (2, 0, 2))
    with pytest.raises(ValueError, match="symmetry factor is 8, not 6"):
        zeta_from_S(root_system("B2"), (2,) * 4, 6)


def test_zeta_rejects_undocumented():
    with pytest.raises(ValueError):
        zeta_from_S(triangle(Fraction(1, 2), 0, 0), (2, 2, 2), 2)
    with pytest.raises(ValueError):
        zeta_from_S(hurwitz_a1(1), (2, 2, 2), 6)
    with pytest.raises(ValueError):
        zeta_from_S(hurwitz_a1(1), (2, 2, 4), 2)
    with pytest.raises(ValueError):
        zeta_from_S(hurwitz_a1(1), (3, 3, 3), 2)


def test_numeric_zeta_divides_by_the_exact_symmetry_factor():
    arr = hurwitz_a2(Fraction(1, 3))
    k = (2,) * 9
    ref = MPContext()
    ref.prec = 256
    want = zeta_from_S(arr, k, 6).embed(ref)
    got = zeta_from_S(arr, k, 6, mode="numeric", precision=200)
    assert abs(ref.mpc(got) - want) <= ref.mpf(2) ** -150 * abs(want)


GOLDEN_DUMP = """\
(0, 1, 1) : -pi^-2/8
(0, 1, 2) : (1/32*z)*pi^-3
(0, 2, 1) : (1/16*z)*pi^-3
(1, 0, 1) : -pi^-2/4
(1, 0, 2) : (1/8*z)*pi^-3
(1, 1, 0) : pi^-2/8
(1, 2, 0) : (1/16*z)*pi^-3
(2, 0, 1) : (1/8*z)*pi^-3
(2, 1, 0) : (-1/32*z)*pi^-3"""


def test_series_dump_golden(a1_alpha1):
    F = generating_function(a1_alpha1, (Fraction(0),), 3)
    assert F.dump() == GOLDEN_DUMP


def test_report_record_fields(a1_alpha1):
    rep = lattice_sum_value(a1_alpha1, (Fraction(0),), (2, 2, 2))
    rec = rep.to_json()
    assert list(rec) == ["S", "mode", "order", "N_cyclotomic", "timing_ms",
                         "C"]
    assert rec["C"] == str(coefficient(a1_alpha1, (Fraction(0),), (2, 2, 2)))
    assert rec["S"] == "pi^2/2 - 39/8"
    assert rec["N_cyclotomic"] == 4


# ---------------------------------------------------------------------------
# refusals
# ---------------------------------------------------------------------------


def _mixed_sign_zeta():
    # the walls e_1, e_2 are excluded, but (1, -1) cuts the orthant
    arr = Arrangement(2, [make_functional((1, 0), 0),
                          make_functional((0, 1), 0),
                          make_functional((1, -1), 0)])
    return zeta_from_S(arr, (2, 2, 2))


@pytest.mark.parametrize("call, start", [
    (lambda: EvaluationContext(hurwitz_a1(1), (0,), "fast"),
     "mode must be 'exact' or 'numeric'"),
    (lambda: EvaluationContext(hurwitz_a1(1), (0, 0)),
     "y must have one entry per dimension"),
    (lambda: coefficient(hurwitz_a1(1), (0,), (2, 2)),
     "one weight per functional required"),
    (_mixed_sign_zeta,
     "the positive orthant is not a region: a direction has entries of "
     "both signs"),
], ids=["unknown_mode", "short_y", "weight_count", "mixed_sign_direction"])
def test_genfun_refusals(call, start):
    with pytest.raises(ValueError, match=f"^{re.escape(start)}"):
        call()
