import hashlib
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath.ctx_mp import MPContext

from latticesums.cyclotomic import CycElt, ExactScalar
from latticesums.families import triangle
from latticesums.genfun import lattice_sum_value
from latticesums.hierarchy import check_hierarchy
from latticesums.kernel import (KernelParams, bernoulli_numbers, kernel_base,
                                kernel_parts, kernel_series, kernel_series_dy)
from latticesums.lattice import Arrangement, GaussianRational, make_functional
from latticesums.oracle import TruncationWindow, truncated_sum
from latticesums.polytope import polytope_report
from latticesums.scalar import ExactRing, NumericRing, format_scalar
from latticesums.series import LinearForm, TruncatedSeries, Truncation
from reference import (bernoulli_poly, form_exp, fraction_kernel_parts,
                       kernel_coeff, mpc_kernel_parts,
                       kernel_coeff_poly, kernel_moment, moment_integral_exact,
                       series_constant, series_variable)

CTX = MPContext()
CTX.prec = 100

R = ExactRing(12)


def test_bernoulli_numbers():
    assert bernoulli_numbers(8) == (
        Fraction(1), Fraction(-1, 2), Fraction(1, 6), Fraction(0),
        Fraction(-1, 30), Fraction(0), Fraction(1, 42), Fraction(0),
        Fraction(-1, 30))


def test_bernoulli_polynomials():
    assert bernoulli_poly(2, Fraction(0)) == Fraction(1, 6)
    assert bernoulli_poly(1, Fraction(1, 2)) == 0
    # B_3(y) = y^3 - 3 y^2/2 + y/2
    assert bernoulli_poly(3, Fraction(1, 3)) == Fraction(1, 27)


def test_integral_branch_is_bernoulli():
    p = KernelParams.make(Fraction(0), Fraction(1, 3))
    for k in range(7):
        assert kernel_coeff(R, k, p) == \
            R.from_fraction(bernoulli_poly(k, Fraction(1, 3)))
    assert kernel_coeff(R, 2, KernelParams.make(0, Fraction(0))) == \
        R.from_fraction(Fraction(1, 6))


@pytest.mark.parametrize("b", [0.5, complex(0.5, 1)],
                         ids=["float", "complex"])
def test_kernel_params_take_exact_constants_only(b):
    # the evaluators hand the kernels exact constants
    # (``Functional.exact_constant``); a float constant is refused, not
    # rounded
    with pytest.raises(TypeError):
        KernelParams.make(b, Fraction(1, 3))


def test_constant_coefficient_branches():
    nonint = KernelParams.make(Fraction(1, 2), Fraction(1, 3))
    assert kernel_coeff(R, 0, nonint).is_zero()
    integral = KernelParams.make(Fraction(2), Fraction(1, 3))
    assert kernel_coeff(R, 0, integral) == \
        R.root_of_unity(Fraction(-2) * Fraction(1, 3))


def test_first_coefficient_branches():
    y = Fraction(1, 3)
    nonint = KernelParams.make(Fraction(1, 2), y)
    expected = R.root_of_unity(Fraction(-1, 2) * y) \
        * R.inv(R.root_of_unity(Fraction(-1, 2)) - R.one())
    assert kernel_coeff(R, 1, nonint) == expected
    integral = KernelParams.make(Fraction(1), y)
    expected2 = R.from_fraction(y - Fraction(1, 2)) * R.root_of_unity(-y)
    assert kernel_coeff(R, 1, integral) == expected2


def test_series_matches_closed_coefficients():
    ring = ExactRing(36)
    for b in (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3)):
        for y in (Fraction(0), Fraction(1, 3), Fraction(1)):
            p = KernelParams.make(b, y)
            s = kernel_series(ring, p, 6)
            for k in range(7):
                assert s.coefficient((k,)) * ring.from_fraction(
                    Fraction(math.factorial(k))) == kernel_coeff(ring, k, p)


def test_bernoulli_relation_against_truncated_sum():
    # symmetric sums of e^{2 pi i m y}/m^k approach -(2 pi i)^k/k! B_k({y})
    # over 0 < |m| <= N: f(m) = m vanishes at m = 0, which is left out
    N = 10_000
    arr = Arrangement(1, [make_functional((1,), 0)])
    for k, y in ((2, Fraction(1, 3)), (3, Fraction(1, 7)),
                 (4, Fraction(2, 5))):
        acc = truncated_sum(arr, (k,), (y,), TruncationWindow(N))
        target = -(2j * CTX.pi) ** k / math.factorial(k) \
            * CTX.mpf(bernoulli_poly(k, y).numerator) \
            / bernoulli_poly(k, y).denominator
        assert abs(complex(acc) - complex(target)) < 10.0 / N


@pytest.mark.parametrize("b", [Fraction(0), Fraction(1, 2), Fraction(1, 3)])
@pytest.mark.parametrize("m", [-3, -2, -1, 0, 1, 2, 3])
@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_moment_four_case_table_by_symbolic_integration(k, m, b):
    ring = ExactRing(12)
    table = kernel_moment(k, m, b)
    shifted = m + b
    if k == 0:
        assert table == (-1 if shifted == 0 else 0)
    elif shifted == 0:
        assert table == 0
    else:
        assert table == 1 / shifted**k
    assert moment_integral_exact(ring, k, m, b) == ring.from_fraction(table)


def test_moment_nonrational_b():
    v = kernel_moment(2, 3, 0.5 + 0j)
    assert abs(v - 1 / 3.5**2) < 1e-12


def test_derivative_series_eigenproperty():
    # d/dy kernel = (t - 2 pi i b) * kernel, coefficientwise
    ring = ExactRing(84)
    for b in (Fraction(0), Fraction(1), Fraction(1, 3)):
        for y in (Fraction(0), Fraction(1, 7)):
            p = KernelParams.make(b, y)
            s = kernel_series(ring, p, 5)
            ds = kernel_series_dy(ring, p, 5)
            tpib = ring.two_pi_i() * ring.from_fraction(b)
            for k in range(5):
                # coefficient of t^k in (t - 2 pi i b) * s
                want = (s.coefficient((k - 1,)) if k else ring.zero()) \
                    - tpib * s.coefficient((k,))
                assert ds.coefficient((k,)) == want


@pytest.mark.parametrize("ring", [ExactRing(420), NumericRing(128)],
                         ids=["exact", "numeric"])
@pytest.mark.parametrize("b", [Fraction(0), Fraction(1), Fraction(1, 3),
                               Fraction(3, 4)])
@pytest.mark.parametrize("y, delta", [(Fraction(1, 7), Fraction(1, 5)),
                                      (Fraction(0), Fraction(1)),
                                      (Fraction(2, 7), Fraction(3, 5))])
def test_kernel_shift_in_y(ring, b, y, delta):
    # the kernel depends on y only through e^{(t - 2 pi i b) y}, so a shift
    # by delta multiplies it by e^{delta t - 2 pi i b delta}: the
    # Apostol-Bernoulli shift, checked on the closed-form coefficients
    order = 7
    shifted = kernel_series(ring, KernelParams.make(b, y + delta), order)
    factor = form_exp(LinearForm({"t": delta}, b * delta), ring,
                      ("t",), Truncation(order))
    product = kernel_series(ring, KernelParams.make(b, y), order) * factor
    if ring.exact:
        assert shifted.terms == product.terms
    else:
        assert (shifted - product).max_magnitude() < 2.0 ** (-100)


def _series_inversion_kernel(ring, b, y, order):
    """The kernel and its y-derivative as products of series, with the
    denominator e^{t - 2 pi i b} - 1 inverted as a unit series."""
    vars, trunc = ("t",), Truncation(order)
    lam = ring.root_of_unity(-b)
    den = TruncatedSeries(ring, vars, trunc, {
        (j,): lam * ring.from_fraction(Fraction(1, math.factorial(j)))
        - (ring.one() if j == 0 else ring.zero())
        for j in range(order + 1)})
    den_inv = den.invert_unit()
    exp_ty = TruncatedSeries(ring, vars, trunc, {
        (j,): ring.from_fraction(y ** j / math.factorial(j))
        for j in range(order + 1) if y ** j})
    t = series_variable(ring, vars, trunc, "t")
    pref = ring.root_of_unity(-b * y)
    tpib = series_constant(ring, vars, trunc,
                           ring.two_pi_i() * ring.from_fraction(b))
    series = (t * exp_ty * den_inv).scalar_mul(pref)
    dy = (t * (t * exp_ty - tpib * exp_ty) * den_inv).scalar_mul(pref)
    return series, dy, den_inv


@pytest.mark.parametrize("N, b, y", [
    (60, Fraction(1, 3), Fraction(2, 5)),
    (60, Fraction(7, 10), Fraction(1, 6)),
    (420, Fraction(3, 7), Fraction(1, 4)),
    (4, Fraction(1, 2), Fraction(0)),
])
def test_closed_form_kernel_matches_series_inversion(N, b, y):
    ring = ExactRing(N)
    order = 7
    series, dy, den_inv = _series_inversion_kernel(ring, b, y, order)
    p = KernelParams.make(b, y)
    assert kernel_series(ring, p, order).terms == series.terms
    assert kernel_series_dy(ring, p, order).terms == dy.terms
    # C(k, x; b) = sum_j p_j x^j e^{-2 pi i b x}, p_j = k!/j! [t^{k-1-j}] 1/den
    for k in range(order + 1):
        want = [den_inv.coefficient((k - 1 - j,))
                * ring.from_fraction(Fraction(math.factorial(k),
                                              math.factorial(j)))
                for j in range(k)] or [ring.zero()]
        assert kernel_coeff_poly(ring, k, b) == want


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


EXACT_BY_N = {N: ExactRing(N) for N in (4, 60, 420, 21840)}
NUMERIC = NumericRing(128)
REF192 = MPContext()
REF192.prec = 192


@st.composite
def kernel_cases(draw):
    """(N, b, y, order) with e^{-2 pi i b} and e^{-2 pi i b y} in
    Q(zeta_N): b over a divisor d <= 12 of N, y over any divisor of N / d,
    so that the root e^{-2 pi i b y} may be dense while B_k(lam) stays in
    a small field, as in the evaluators; b is integral one time in two."""
    N = draw(st.sampled_from(sorted(EXACT_BY_N)))
    d = 1 if draw(st.booleans()) else draw(st.sampled_from(
        [x for x in _divisors(N)[1:] if x <= 12]))
    b = Fraction(draw(st.integers(-2 * d, 2 * d)), d)
    e = draw(st.sampled_from(_divisors(N // d)))
    y = Fraction(draw(st.integers(0, e)), e)
    return N, b, y, draw(st.integers(0, 5))


@settings(max_examples=60, deadline=None)
@given(kernel_cases(), st.integers(0, 6))
def test_root_times_parts_is_the_kernel(case, other):
    # the kernel is its root of unity e^{-2 pi i b y} times its
    # root-free parts, coefficient by coefficient, with B_k(lam) / k! shared
    # by every y: exact in the exact ring, and equal to the Bernoulli
    # polynomials (integral b) or to the series inversion of the generating
    # function (any other b); within 2^-100 of the exact value
    # (embedded at 192 bits) in the numeric ring
    N, b, y, order = case
    ring = EXACT_BY_N[N]
    p = KernelParams.make(b, y)
    shared = kernel_base(ring, KernelParams.make(b, Fraction(other, 7)),
                         order)
    parts = kernel_parts(ring, p, order, kernel_base(ring, p, order))
    assert kernel_parts(ring, p, order, shared) == parts
    root = ring.root_of_unity(-b * y)
    want = kernel_series(ring, p, order)
    if p.integral:  # e^{-2 pi i b y} B_n(y) / n!
        reference = [root * ring.from_fraction(
            bernoulli_poly(n, y) / math.factorial(n))
            for n in range(order + 1)]
    else:
        inverted = _series_inversion_kernel(ring, b, y, order)[0]
        reference = [inverted.coefficient((n,)) for n in range(order + 1)]
    for n, a in enumerate(parts):
        assert root * a == want.coefficient((n,)) == reference[n]
    numeric = kernel_series(NUMERIC, p, order)
    root = NUMERIC.root_of_unity(-b * y)
    for n, a in enumerate(kernel_parts(NUMERIC, p, order,
                                       kernel_base(NUMERIC, p, order))):
        ref = want.coefficient((n,)).embed(REF192)
        tol = 2.0 ** -100 * max(1, abs(ref))
        assert abs(root * a - ref) <= tol
        assert abs(numeric.coefficient((n,)) - ref) <= tol


@settings(max_examples=60, deadline=None)
@given(kernel_cases(), st.integers(0, 8))
def test_integer_kernel_parts_match_the_fraction_formula(case, order):
    # the exact root-free parts, made from integer numerators over one
    # denominator, equal the Fraction formula term for term, for integral
    # and non-integral b, y = 0 included, through order 8
    N, b, y, _ = case
    ring = EXACT_BY_N[N]
    p = KernelParams.make(b, y)
    base = kernel_base(ring, p, order)
    got = kernel_parts(ring, p, order, base)
    want = fraction_kernel_parts(ring, p, order, base)
    assert [(a.terms, a.den) for a in got] \
        == [(a.terms, a.den) for a in want]


@st.composite
def numeric_kernel_cases(draw):
    """(b, y, order): b integral, non-integral or a Gaussian rational, y
    in [0, 1], 0 one time in four, order <= 8."""
    kind = draw(st.sampled_from(["integral", "rational", "gaussian"]))
    q = 1 if kind == "integral" else draw(st.integers(2, 12))
    b = Fraction(draw(st.integers(-3 * q, 3 * q)), q)
    if kind == "rational" and b.denominator == 1:
        b += Fraction(1, q)
    if kind == "gaussian":
        b = GaussianRational(b, Fraction(draw(st.sampled_from(
            [-3, -1, 1, 2])), draw(st.integers(1, 12))))
    d = draw(st.integers(1, 40))
    y = Fraction(0) if draw(st.integers(0, 3)) == 0 \
        else Fraction(draw(st.integers(0, d)), d)
    return b, y, draw(st.integers(0, 8))


@settings(max_examples=80, deadline=None)
@given(numeric_kernel_cases())
def test_numeric_kernel_parts_match_the_mpc_formula(case):
    # the numeric root-free parts, summed exactly on the base's mantissas
    # and rounded once each, are within 2^-(precision - 4) relative of the
    # formula in rounded mpc arithmetic, measured by the largest of its
    # terms, for integral, non-integral and Gaussian b, at y = 0 and not
    b, y, order = case
    p = KernelParams.make(b, y)
    base = kernel_base(NUMERIC, p, order)
    got = kernel_parts(NUMERIC, p, order, base)
    want = mpc_kernel_parts(NUMERIC, p, order, base)
    yv = NUMERIC.ctx.mpf(p.r) / p.d
    assert len(got) == len(want) == order + 1
    for n, (a, w) in enumerate(zip(got, want)):
        size = max(abs(base[k]) * yv ** (n - k) / math.factorial(n - k)
                   for k in range(n + 1))
        assert abs(a - w) <= 2.0 ** -(NUMERIC.precision - 4) * size


def test_kernel_argument_validation():
    with pytest.raises(ValueError):
        KernelParams.make(Fraction(0), Fraction(3, 2))


def test_exact_evaluators_invert_no_scalar(monkeypatch):
    # the one inverse of a kernel, 1/(lam - 1), is built from the exact
    # constant (``ring.root_minus_one_inverse``): the value, the polytope
    # check and the hierarchy check of non-integral constants run with
    # every scalar inverse refused, and give the values pinned here
    def refused(self):
        raise AssertionError("an exact scalar was inverted")

    monkeypatch.setattr(ExactScalar, "inv", refused)
    monkeypatch.setattr(CycElt, "inv", refused)
    y = (Fraction(1, 7), Fraction(2, 11))
    value = format_scalar(lattice_sum_value(
        triangle(Fraction(1, 3), Fraction(1, 5), Fraction(7, 15)), y,
        (2, 2, 2)).value)
    assert len(value) == 5040
    assert hashlib.sha256(value.encode()).hexdigest() == \
        "4fa19faf146b949be33e4c7bda4caa294c324a65454eb83271cd345a59153024"
    arr = triangle(Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))
    rep = polytope_report(arr, y, 3)
    assert rep == {"m_count": 3, "per_m": [
        {"m": [0, 0], "vertices": 2, "simple": True},
        {"m": [1, 0], "vertices": 2, "simple": True},
        {"m": [1, 1], "vertices": 2, "simple": True}],
        "order": 3, "max_discrepancy": "0 (exact)"}
    rep = check_hierarchy(arr, [0, 1], y, 4)
    assert (rep["removed"], rep["stray_variable_terms"],
            rep["max_discrepancy_str"]) == ([2], 0, "0 (exact)")
