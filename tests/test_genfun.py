import dataclasses
import itertools
import json
import math
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import assume, given, settings, strategies as st
from mpmath.ctx_mp import MPContext

from latticesums import genfun, intlinalg, lattice
from latticesums.errors import ExcludedPoint, NonDivisible
from latticesums.families import (a2_directions, hurwitz_a1, hurwitz_a2,
                                  triangle)
from latticesums.genfun import (EvaluationContext, WeightVector,
                                build_summands, clear_coefficient_table,
                                coefficient,
                                cyclotomic_order, documented_family,
                                generating_function, lattice_sum_value,
                                summand_rational_form, zeta_from_S)
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
from reference import (full_order_summand, lift, permuted, pi_pow,
                       series_variable, unit_inverse)

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
    form = LinearForm(ring, den_coeffs, den_const_q)
    num = series_variable(ring, ctx.vars, trunc, gvar)
    num = num * form.power(ring, ctx.vars, trunc, 1).invert_unit()
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
        form = LinearForm(ring, coeffs, const_q)
        gvar = [v for v, c in coeffs.items() if c == 1][0]
        t = series_variable(ring, ctx.vars, trunc, gvar)
        return t * form.power(ring, ctx.vars, trunc, 1).invert_unit()

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
    phi2 = choose_phi(arr, skip=1)
    assert phi1.phi != phi2.phi
    r1 = lattice_sum_value(arr, generic_y2, (1, 2, 2), phi=phi1)
    r2 = lattice_sum_value(arr, generic_y2, (1, 2, 2), phi=phi2)
    assert r1.value == r2.value


def test_phi_independence_at_lattice_point():
    arr = hurwitz_a1(1)
    r1 = lattice_sum_value(arr, (Fraction(0),), (2, 2, 2),
                           phi=choose_phi(arr))
    r2 = lattice_sum_value(arr, (Fraction(0),), (2, 2, 2),
                           phi=choose_phi(arr, skip=1))
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
    # every summand is its own component and is read at k from closed-form
    # coefficients on the box e <= k_B; the full series builds it whole
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
# hyperplane.  In rank three, bases of one component meet in different
# points, so some summands have unit factors in live variables, and at
# k = 0 they leave nothing below `order`.
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
    # a component with a singular denominator builds each summand on its
    # basis variables, truncated below `order` by its live and singular
    # factors, before the division; the full series builds it whole
    for arr, y, top in _singular_cases(generic_y2):
        ctx = EvaluationContext(arr, y, mode)
        assert any(s.degenerate_factors for s in build_summands(ctx))
        for total in range(top + 1):
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

# Rank two with a Gaussian-rational constant on (1,-1): the other three
# functionals meet in a singular hyperplane (8/15 = 1/3 + 1/5), so the
# bases among them form a singular component whose summands carry the
# (1,-1) factor as a collapsed unit with a Gaussian constant, and the
# bases holding (1,-1) are unit summands whose factors have Gaussian
# constants too.  Exact mode refuses a non-real constant (its kernel is
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
    return sum_rational_forms([summand_rational_form(ctx, s, work)
                               for s in summands])


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


@pytest.mark.parametrize("order", [2, 3, 4])
@pytest.mark.parametrize("dropped", [0, 1, 2])
def test_sum_without_one_summand_is_not_divisible(order, dropped,
                                                  monkeypatch):
    # the exact divisions are the self-check of the assembled sum: without
    # one basis's summand it is not holomorphic, and at the working order
    # order + divisions the remainder test still sees that
    real = genfun.build_summands

    def without_one(ctx):
        summands = real(ctx)
        assert len(summands) == 3
        return summands[:dropped] + summands[dropped + 1:]

    monkeypatch.setattr(genfun, "build_summands", without_one)
    with pytest.raises(NonDivisible):
        generating_function(a2_directions(), (0, 0), order)


# ---------------------------------------------------------------------------
# the summand builder
# ---------------------------------------------------------------------------


UNIT_VARS = ("t0", "t1", "t2")
UNIT_RINGS = {4: ExactRing(4), 60: ExactRing(60)}
CTX256 = MPContext()
CTX256.prec = 256


def _unit_constant(draw):
    re = Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 7)))
    im = Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 7))) \
        if draw(st.booleans()) else Fraction(0)
    if re == 0 and im == 0:
        re = Fraction(1, 3)
    return re if im == 0 else GaussianRational(re, im)


@st.composite
def _unit_factors(draw):
    """(coefficients, constant, k) triples: rational coefficients on one
    to three of UNIT_VARS, a nonzero Fraction or Gaussian-rational
    constant and k from 1 to 4; one time in two the last linear part is a
    rational multiple of the first, with its own constant."""
    out = []
    for _ in range(draw(st.integers(1, 3))):
        names = draw(st.lists(st.sampled_from(UNIT_VARS), min_size=1,
                              max_size=3, unique=True))
        coeffs = {v: Fraction(draw(st.integers(-6, 6).filter(bool)),
                              draw(st.integers(1, 9))) for v in names}
        out.append((coeffs, _unit_constant(draw), draw(st.integers(1, 4))))
    if draw(st.booleans()):
        scale = Fraction(draw(st.integers(-4, 4).filter(bool)),
                         draw(st.integers(1, 5)))
        out.append(({v: q * scale for v, q in out[0][0].items()},
                    _unit_constant(draw), draw(st.integers(1, 4))))
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
                               LinearForm(ring, coeffs, c))
        for _ in range(k):
            out = out * inverse
    return out


def _unit_product(ring, factors, trunc):
    return genfun.unit_product(
        ring, [(LinearForm(ring, coeffs, c), k) for coeffs, c, k in factors],
        UNIT_VARS, trunc)


# two factors whose linear parts agree up to scale, one with a Gaussian
# constant, and a third on other variables
SCALED_FACTORS = [
    ({"t0": Fraction(1), "t1": Fraction(-2, 3)}, Fraction(2, 5)),
    ({"t0": Fraction(-3, 2), "t1": Fraction(1)},
     GaussianRational(Fraction(1, 2), Fraction(-1, 3))),
    ({"t1": Fraction(1, 4), "t2": Fraction(5)}, Fraction(-3, 7)),
]


@pytest.mark.parametrize("box", [None, (2, 1, 3)], ids=["total", "box"])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("ring", ["4", "60", "numeric"])
def test_unit_product_is_the_product_of_inverse_powers(ring, k, box):
    # term by term: exact rings equal the series products of the inverse
    # powers, the 128-bit ring their exact value within 2^-120 relative
    factors = [(coeffs, c, k + i % 2) for i, (coeffs, c)
               in enumerate(SCALED_FACTORS)]
    trunc = Truncation(5, box)
    exact = UNIT_RINGS[4 if ring == "numeric" else int(ring)]
    want = _inverse_power_product(exact, factors, trunc)
    assert want.terms
    if ring != "numeric":
        assert _unit_product(exact, factors, trunc).terms == want.terms
        return
    got = _unit_product(NumericRing(128), factors, trunc)
    assert set(got.terms) == set(want.terms)
    for e, c in want.terms.items():
        c = c.embed(CTX256)
        assert abs(got.terms[e] - c) <= CTX256.mpf(2) ** -120 * abs(c), e


@pytest.mark.parametrize("N", [4, 60])
@settings(max_examples=25, deadline=None)
@given(factors=_unit_factors(), trunc=_unit_truncations)
def test_unit_product_matches_inverse_powers_exact(N, factors, trunc):
    ring = UNIT_RINGS[N]
    assert _unit_product(ring, factors, trunc).terms == \
        _inverse_power_product(ring, factors, trunc).terms


@settings(max_examples=25, deadline=None)
@given(factors=_unit_factors(), trunc=_unit_truncations)
def test_unit_product_matches_inverse_powers_numeric(factors, trunc):
    want = _inverse_power_product(UNIT_RINGS[4], factors, trunc)
    got = _unit_product(NumericRing(128), factors, trunc)
    assert set(got.terms) == set(want.terms)
    for e, c in want.terms.items():
        c = c.embed(CTX256)
        assert abs(got.terms[e] - c) <= CTX256.mpf(2) ** -120 * abs(c), e


def test_unit_product_rejects_a_zero_constant():
    ring = UNIT_RINGS[4]
    with pytest.raises(NonDivisible):
        genfun.unit_product(ring, [(LinearForm(ring, {"t0": 1}), 1)],
                            UNIT_VARS, Truncation(2))


def test_unit_product_of_no_factor_is_one():
    ring = UNIT_RINGS[60]
    got = genfun.unit_product(ring, [], UNIT_VARS, Truncation(3, (1, 1, 1)))
    assert got.terms == {(0, 0, 0): ring.one()}


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
            got = summand_rational_form(ctx, s, order)
            if order < tg_count:
                assert got.numerator.is_zero()
            want = _coset_sum_reference(ctx, s.bidx, order)
            assert got.numerator.trunc == want.numerator.trunc
            assert got.numerator.terms == want.numerator.terms
            assert [d.key for d in got.denominators] == \
                [d.key for d in want.denominators]
            num = summand_rational_form(nctx, ns, order).numerator
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
            got = summand_rational_form(ctx, s, order)
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
                got = genfun._unit_summand_value(ctx, s, WeightVector.make(k))
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
            prod = prod * kernel_series(ring, params, order, ctx.vars[m],
                                        vars).with_truncation(trunc)
        want = want + prod
    assert len(want.terms) > order
    assert got.terms == want.terms


def test_basis_summand_factors_built_once_per_basis(monkeypatch):
    # each build expands all of a basis's unit factors, live and
    # collapsed, in one unit product, not once per coset or per factor;
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
    real_product = genfun.unit_product
    real_mul = TruncatedSeries.__mul__

    def counted_product(ring, factors, vars, trunc):
        products.append((len(factors), trunc))
        return real_product(ring, factors, vars, trunc)

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

    monkeypatch.setattr(genfun, "unit_product", counted_product)
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
        # the basis variables and one unit factor's t_g live, one dead
        live = tuple(ctx.vars[i] for i in sorted(
            b.members + (s.unit_factors[0][0],)))
        box = tuple(k.weights[m] for m in b.members)
        # the (factor count, truncation) of each build's unit products:
        # below the order by one degree per live t_g
        for build, want in (
                (lambda: summand_rational_form(ctx, s, 4),
                 [(units, Truncation(4 - units))]),
                (lambda: summand_rational_form(ctx, s, 4, live, k),
                 [(units, Truncation(3))]),
                (lambda: genfun._unit_summand_value(ctx, s, k),
                 [(units, Truncation(sum(box), box))])):
            products.clear()
            reads.clear()
            build()
            assert products == want
            assert sorted(reads) == pairs
        monkeypatch.setattr(TruncatedSeries, "__mul__", counted_mul)
        muls.clear()
        genfun._unit_summand_value(ctx, s, k)
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
        assert not summand_rational_form(ctx, s, 5).numerator.is_zero()
    assert not ctx.ring.is_zero(coefficient(arr, generic_y2, (2, 2, 2)))


# ---------------------------------------------------------------------------
# evaluation contexts and the coefficient table
# ---------------------------------------------------------------------------


def test_context_for_another_arrangement_or_y_is_rejected(a1_alpha1):
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
                           phi=phi and choose_phi(arr, skip=phi))

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
        assert [(g, f.coeffs) for g, f in forms1] == \
            [(g, f.coeffs) for g, f in forms2]
        assert [f.c for _, f in forms1] != [f.c for _, f in forms2]
    # a cold table, and new arrangement objects, give the same values
    for consts, warm in ((second, warm2), (first, warm1)):
        lattice.clear_arrangement_table()
        clear_coefficient_table()
        assert lattice_sum_value(triangle(*consts), generic_y2, k).value \
            == warm


def test_non_default_phi_reads_its_own_branches():
    # at y = 0 every <y + w, f^B> is an integer, so each fractional part
    # takes its branch; phi = (1, 1) and (1, 3) disagree on two of them
    arr = Arrangement(2, [make_functional((1, 0), Fraction(1, 2)),
                          make_functional((0, 1), Fraction(1, 2)),
                          make_functional((1, 2), 0)])
    y = (Fraction(0), Fraction(0))
    phi0, phi1 = choose_phi(arr), choose_phi(arr, skip=1)
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
    arr = Arrangement(2, [make_functional((1, 0), 0),
                          make_functional((0, 1), 0),
                          make_functional((0, 2), 1)])
    with pytest.raises(ExcludedPoint):
        generating_function(arr, (Fraction(0), Fraction(1, 3)), 3)


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
        got = genfun._unit_summand_value(ctx, s, WeightVector.make(e))
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
# documented symmetric families
# ---------------------------------------------------------------------------


def test_documented_families_detected():
    assert documented_family(hurwitz_a1(2)) == "hurwitz-a1"
    assert documented_family(a2_directions()) == "a2-directions"
    assert documented_family(triangle(0, Fraction(1, 3), 0)) is None


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
    rec = rep.to_json(include_C="c")
    assert set(rec) == {"S", "mode", "order", "N_cyclotomic", "timing_ms",
                        "C"}
    assert rec["S"] == "pi^2/2 - 39/8"
    assert rec["N_cyclotomic"] == 4
