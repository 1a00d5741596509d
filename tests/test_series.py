import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath.ctx_mp import MPContext

from latticesums import series as series_module
from latticesums.errors import NonDivisible
from latticesums.genfun import unit_product
from latticesums.lattice import GaussianRational
from latticesums.scalar import ExactRing, NumericRing
from latticesums.series import (LinearForm, RationalForm, TruncatedSeries,
                                Truncation, divide_exact, division_count,
                                sum_rational_forms)
from reference import (form_exp, pi_pow, series_constant,
                       series_variable)

R = ExactRing(4)
VARS = ("t1", "t2", "t3")


def series(trunc_total=4, vars=VARS):
    return TruncatedSeries(R, vars, Truncation(trunc_total))


def var(name, trunc_total=4, vars=VARS):
    return series_variable(R, vars, Truncation(trunc_total), name)


def one(trunc_total=4, vars=VARS):
    return TruncatedSeries.one(R, vars, Truncation(trunc_total))


def test_add_mul_truncation():
    t = var("t1", 2, ("t1",))
    o = one(2, ("t1",))
    p = (o + t) * (o - t)
    assert p.terms == {(0,): R.one(), (2,): R.from_fraction(-1)}
    q = (o + t) * (o + t)
    q1 = q.with_truncation(Truncation(1))
    assert q1.terms == {(0,): R.one(), (1,): R.from_fraction(2)}


EXACT_RINGS = {N: ExactRing(N) for N in (4, 12, 1260)}


@st.composite
def exact_series(draw, ring, trunc=Truncation(3), vars=("t1", "t2")):
    """Coefficients sum one to three terms q * pi^k * zeta^j, with mixed
    denominators q, k in -1..2 and any basis monomial zeta^j."""
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        e = tuple(draw(st.integers(0, trunc.total)) for _ in vars)
        c = ring.zero()
        for _ in range(draw(st.integers(1, 3))):
            q = Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 12)))
            c = c + pi_pow(ring, draw(st.integers(-1, 2))) \
                * ring.field.zeta_pow(draw(st.integers(0, ring.N - 1))) \
                * ring.from_fraction(q)
        if trunc.keeps(e) and not c.is_zero():
            terms[e] = c
    return TruncatedSeries(ring, vars, trunc, terms)


def termwise_product(a, b):
    """Reference product: one ``ExactScalar`` product and sum per term
    pair, truncated by total degree."""
    out = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if a.trunc.keeps(e):
                out[e] = out.get(e, a.ring.zero()) + ca * cb
    return {e: c for e, c in out.items() if not c.is_zero()}


def assert_canonical(c):
    assert c.den >= 1
    assert all(isinstance(v, int) and v for v in c.terms.values())
    assert math.gcd(c.den, *c.terms.values()) == 1


@pytest.mark.parametrize("N", sorted(EXACT_RINGS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_exact_product_matches_termwise(N, data):
    ring = EXACT_RINGS[N]
    a = data.draw(exact_series(ring))
    b = data.draw(exact_series(ring))
    want = termwise_product(a, b)
    for got in (a * b, b * a):
        assert got.terms == want
        for c in got.terms.values():
            assert_canonical(c)
    # (1 + c t)(1 - c t) = 1 - c^2 t^2 has no t^1 term
    trunc = Truncation(3)
    c = ring.from_fraction(Fraction(1, 3)) \
        + ring.field.zeta_pow(1)
    t = series_variable(ring, ("t",), trunc, "t").scalar_mul(c)
    o = TruncatedSeries.one(ring, ("t",), trunc)
    p = (o + t) * (o - t)
    assert p.terms == {(0,): ring.one(), (2,): -(c * c)}
    for v in p.terms.values():
        assert_canonical(v)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_boxed_product_keeps_the_box(data):
    # with a box in the truncation, both rings multiply on the box only:
    # the product is the unboxed product's terms with e <= box
    ring, numeric = EXACT_RINGS[1260], NumericRing(128)
    box = tuple(data.draw(st.integers(0, 3)) for _ in range(2))
    trunc = Truncation(3, box)
    a = data.draw(exact_series(ring, trunc))
    b = data.draw(exact_series(ring, trunc))
    full = TruncatedSeries(ring, a.vars, Truncation(3), a.terms) \
        * TruncatedSeries(ring, b.vars, Truncation(3), b.terms)
    want = {e: c for e, c in full.terms.items()
            if all(x <= m for x, m in zip(e, box))}
    assert (a * b).terms == want == termwise_product(a, b)

    def embedded(s):
        return TruncatedSeries(numeric, s.vars, trunc, {
            e: c.embed(numeric.ctx) for e, c in s.terms.items()})
    got = (embedded(a) * embedded(b)).terms
    assert set(got) <= set(want)
    for e, c in want.items():
        ref = c.embed(numeric.ctx)
        assert abs(got.get(e, 0) - ref) <= 2.0 ** -100 * max(1, abs(ref))


def test_exp_multiplicativity():
    for K in (2, 4, 6):
        tr = Truncation(K)
        l1 = LinearForm(R, {"t1": 1})
        l2 = LinearForm(R, {"t2": 1})
        l12 = LinearForm(R, {"t1": 1, "t2": 1})
        lhs = form_exp(l12, R, VARS, tr)
        rhs = form_exp(l1, R, VARS, tr) * form_exp(l2, R, VARS, tr)
        assert lhs.terms == rhs.terms


def test_invert_unit_geometric():
    tr = Truncation(5)
    s = one(5, ("t",)) - var("t", 5, ("t",))
    inv = s.invert_unit()
    assert inv.terms == {(j,): R.one() for j in range(6)}
    c = series_constant(R, ("t",), tr, R.from_fraction(Fraction(3)))
    assert c.invert_unit().terms == {(0,): R.from_fraction(Fraction(1, 3))}
    # exp(t) inverse is exp(-t)
    e = form_exp(LinearForm(R, {"t": 1}), R, ("t",), tr)
    em = form_exp(LinearForm(R, {"t": -1}), R, ("t",), tr)
    assert e.invert_unit().terms == em.terms


def test_invert_unit_rejects_zero_constant():
    with pytest.raises(NonDivisible):
        var("t1").invert_unit()


def test_divide_exact_examples():
    t1, t2 = var("t1"), var("t2")
    l = LinearForm(R, {"t1": 1, "t2": -1})
    q = divide_exact(t1 * t1 - t2 * t2, l)
    assert q.terms == (t1 + t2).terms
    l2 = LinearForm(R, {"t1": 1, "t2": 2})
    q2 = divide_exact(t1 * (t1 + t2.scalar_mul(R.from_fraction(2))), l2)
    assert q2.terms == t1.terms
    # the remainder is free of the pivot t1 (|q| tied, first by name):
    # t1 + t2 = (t1 - t2) + 2 t2 and t1^2 + t2 = (t1 - t2)(t1 + t2) + t2 + t2^2
    with pytest.raises(NonDivisible) as err:
        divide_exact(t1 + t2, l)
    assert err.value.residual == t2.scalar_mul(R.from_fraction(2)).terms
    with pytest.raises(NonDivisible) as err:
        divide_exact(t1 * t1 + t2, l)
    assert err.value.residual == (t2 + t2 * t2).terms


@st.composite
def random_series_and_form(draw):
    trunc = Truncation(4)
    s = TruncatedSeries(R, VARS, trunc)
    nterms = draw(st.integers(1, 5))
    for _ in range(nterms):
        e = tuple(draw(st.integers(0, 2)) for _ in VARS)
        if sum(e) > 3:
            continue
        c = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
        if c:
            s.terms[e] = R.from_fraction(c)
    coeffs = {}
    for v in VARS:
        c = Fraction(draw(st.integers(-3, 3)))
        if c:
            coeffs[v] = c
    if not coeffs:
        coeffs["t1"] = Fraction(1)
    return s, LinearForm(R, coeffs)


@settings(max_examples=60, deadline=None)
@given(random_series_and_form())
def test_divide_round_trip(data):
    q, l = data
    s = q * linear_series(l, R, VARS, q.trunc)
    got = divide_exact(s, l)
    # the quotient agrees with q on every exponent of total degree < K
    for e in set(q.terms) | set(got.terms):
        if sum(e) < q.trunc.total:
            assert got.coefficient(e) == q.coefficient(e)
    # and multiplying it back by the form reproduces s on every exponent
    back = got * linear_series(l, R, VARS, q.trunc)
    assert back.terms == s.terms


@settings(max_examples=60, deadline=None)
@given(random_series_and_form())
def test_remainder_is_free_of_the_pivot(data):
    s, l = data
    try:
        divide_exact(s, l)
        r = {}
    except NonDivisible as err:
        r = err.residual
    pivot = min((-abs(q), v) for v, q in l.coeffs.items())[1]
    assert all(e[VARS.index(pivot)] == 0 for e in r)
    # s - r is l times the quotient
    rest = s - TruncatedSeries(R, VARS, s.trunc, dict(r))
    q = divide_exact(rest, l)
    assert (q * linear_series(l, R, VARS, s.trunc)).terms == rest.terms


@st.composite
def wide_forms_and_quotients(draw):
    """A singular form with coefficients of modulus 1/1000 to 7 and a
    rational series of total degree below 4, as exact Fraction terms."""
    size = st.fractions(Fraction(1, 1000), 7, max_denominator=1000)
    coeffs = {v: draw(size) * draw(st.sampled_from((1, -1)))
              for v in draw(st.lists(st.sampled_from(VARS), min_size=1,
                                     max_size=3, unique=True))}
    quotient = {}
    for _ in range(draw(st.integers(1, 6))):
        e = tuple(draw(st.integers(0, 3)) for _ in VARS)
        if sum(e) < 4:
            quotient[e] = draw(st.fractions(-7, 7, max_denominator=1000))
    return coeffs, quotient


@settings(max_examples=60, deadline=None)
@given(wide_forms_and_quotients())
def test_numeric_quotient_matches_the_exact_one(data):
    coeffs, quotient = data
    trunc = Truncation(4)
    product = {}
    for e, c in quotient.items():
        for v, q in coeffs.items():
            ne = tuple(x + (w == v) for x, w in zip(e, VARS))
            product[ne] = product.get(ne, 0) + c * q
    exact, numeric = (
        divide_exact(TruncatedSeries(ring, VARS, trunc, {
            e: ring.from_fraction(c) for e, c in product.items() if c}),
            LinearForm(ring, coeffs))
        for ring in (R, NR128))
    ref = MPContext()
    ref.prec = 256
    want = {e: c.embed(ref) for e, c in exact.terms.items()}
    scale = max([abs(w) for w in want.values()], default=ref.mpf(0))
    for e in set(want) | set(numeric.terms):
        err = abs(ref.mpc(numeric.coefficient(e)) - want.get(e, 0))
        assert err <= ref.mpf(2) ** -100 * scale


def linear_series(form, ring, vars, trunc):
    """The form as a series, built term by term: an independent reference
    for its closed-form expansions."""
    s = series_constant(ring, vars, trunc, form.constant)
    for v, q in form.coeffs.items():
        s = s + series_variable(ring, vars, trunc, v).scalar_mul(
            ring.from_fraction(q))
    return s


def rational_coeffs(draw):
    return {v: Fraction(draw(st.integers(-6, 6).filter(bool)),
                        draw(st.integers(1, 9)))
            for v in draw(st.lists(st.sampled_from(VARS), min_size=1,
                                   max_size=3, unique=True))}


@st.composite
def unit_forms(draw, ring):
    """A form sum_v q_v t_v - 2 pi i c with c a nonzero Fraction or
    Gaussian rational and one to three nonzero rational q_v."""
    re = Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 7)))
    im = Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 7)))
    if re == 0 and im == 0:
        re = Fraction(1, 3)
    c = re if im == 0 else GaussianRational(re, im)
    return LinearForm(ring, rational_coeffs(draw), c)


def _power(s, k):
    out = TruncatedSeries.one(s.ring, s.vars, s.trunc)
    for _ in range(k):
        out = out * s
    return out


NR128 = NumericRing(128)


@st.composite
def rational_forms(draw, ring):
    """A form sum_v q_v t_v - 2 pi i c, singular one time in four.  In the
    exact ring c is a multiple of 1/12, so that e^(-2 pi i c) lies in
    Q(zeta_12); in the numeric ring it may be a Gaussian rational."""
    if draw(st.integers(0, 3)) == 0:
        c = Fraction(0)
    elif ring.exact:
        c = Fraction(draw(st.integers(-12, 12).filter(bool)), 12)
    else:
        c = draw(unit_forms(ring)).c
    return LinearForm(ring, rational_coeffs(draw), c)


def _exp_reference(form, ring, vars, trunc):
    """e^(-2 pi i c) sum_n L^n / n! from repeated series products."""
    pref = ring.root_of_unity(-form.c) if ring.exact \
        else ring.ctx.exp(form.constant)
    lin = LinearForm(ring, form.coeffs)
    out = TruncatedSeries.one(ring, vars, trunc)
    for n in range(1, trunc.total + 1):
        out = out + _power(linear_series(lin, ring, vars, trunc), n) \
            .scalar_mul(ring.from_fraction(Fraction(1, math.factorial(n))))
    return out.scalar_mul(pref)


def _expansion_and_reference(data, ring):
    """power(m) of a random form, or its exponential from the closed-form
    reference (``reference.form_exp``), with its value from repeated
    series products.  The unit inverses are checked against
    ``invert_unit`` in ``tests/test_genfun.py`` (``unit_product``)."""
    form = data.draw(rational_forms(ring))
    trunc = Truncation(data.draw(st.integers(0, 5)))
    if data.draw(st.booleans()):
        m = data.draw(st.integers(0, 4))
        return (form.power(ring, VARS, trunc, m),
                _power(linear_series(form, ring, VARS, trunc), m).terms)
    return (form_exp(form, ring, VARS, trunc),
            _exp_reference(form, ring, VARS, trunc).terms)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_expansions_match_series_products_exact(data):
    got, want = _expansion_and_reference(data, EXACT_RINGS[12])
    assert got.terms == want


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_expansions_match_series_products_numeric(data):
    got, want = _expansion_and_reference(data, NR128)
    assert set(got.terms) == set(want)
    for e, c in want.items():
        assert abs(got.terms[e] - c) <= 2.0 ** -100 * max(1, abs(c))


@pytest.mark.parametrize("ring", [EXACT_RINGS[12], NR128],
                         ids=["exact", "numeric"])
@pytest.mark.parametrize("c", [0, 1, -2])
def test_int_constant_is_a_fraction(ring, c):
    coeffs = {"t1": Fraction(1), "t2": Fraction(-1, 2)}
    tr = Truncation(3)
    got = LinearForm(ring, coeffs, c)
    want = LinearForm(ring, coeffs, Fraction(c))
    assert got.singular == want.singular == (c == 0)
    assert form_exp(got, ring, VARS, tr).terms == \
        form_exp(want, ring, VARS, tr).terms
    assert unit_product(ring, [], VARS, tr, got).terms == \
        unit_product(ring, [], VARS, tr, want).terms
    if c == 0:
        with pytest.raises(NonDivisible):
            unit_product(ring, [(got, 2)], VARS, tr)
    else:
        assert unit_product(ring, [(got, 2)], VARS, tr).terms == \
            unit_product(ring, [(want, 2)], VARS, tr).terms


def test_partial_fraction_identity():
    t1, t2 = var("t1"), var("t2")
    f1 = RationalForm(t1, [LinearForm(R, {"t1": 1, "t2": -1})])
    f2 = RationalForm(t2, [LinearForm(R, {"t2": 1, "t1": -1})])
    tot = sum_rational_forms([f1, f2])
    assert tot.terms == one().terms


def test_single_form_without_denominators():
    s = var("t1") * var("t2")
    assert sum_rational_forms([RationalForm(s, [])]).terms == s.terms


def test_sum_rational_forms_permutation_invariant():
    t1, t2, t3 = var("t1"), var("t2"), var("t3")
    l12 = LinearForm(R, {"t1": 1, "t2": -1})
    l13 = LinearForm(R, {"t1": 1, "t3": -1})
    forms = [
        RationalForm(t1 * t1 - t2 * t2, [l12]),
        RationalForm(t1 * t3 - t2 * t3, [l12]),
        RationalForm(t1 * t1 - t3 * t3, [l13]),
    ]
    reference = None
    for perm in itertools.permutations(forms):
        got = sum_rational_forms(list(perm))
        if reference is None:
            reference = got.terms
        else:
            assert got.terms == reference


def test_division_count_takes_each_key_at_its_largest_multiplicity():
    l12 = LinearForm(R, {"t1": 1, "t2": -1})
    scaled = LinearForm(R, {"t1": Fraction(-3, 2), "t2": Fraction(3, 2)})
    l13 = LinearForm(R, {"t1": 1, "t3": -1})
    # equal up to a rational scale: one key
    assert scaled.key == l12.key
    assert division_count([]) == 0
    assert division_count([[], []]) == 0
    assert division_count([[l12], [scaled]]) == 1
    # one list holding a key twice counts it twice
    assert division_count([[l12, scaled]]) == 2
    assert division_count([[l12, scaled], [l12], [l13]]) == 3
    assert division_count([[l12, l13], [scaled, l13, l13]]) == 3


def test_sum_rational_forms_divides_division_count_times(monkeypatch):
    trunc = Truncation(4)
    l12 = LinearForm(R, {"t1": 1, "t2": -1})
    scaled = LinearForm(R, {"t1": Fraction(-3, 2), "t2": Fraction(3, 2)})
    l13 = LinearForm(R, {"t1": 1, "t3": -1})
    # l12^2 t3 / (l12 * scaled) + l13 t1 / l13 = -2/3 t3 + t1
    forms = [RationalForm(l12.power(R, VARS, trunc, 2) * var("t3"),
                          [l12, scaled]),
             RationalForm(l13.power(R, VARS, trunc, 1) * var("t1"), [l13])]
    divided = []
    real = series_module.divide_exact

    def counting(s, form, residuals=None):
        divided.append(form.key)
        return real(s, form, residuals)

    monkeypatch.setattr(series_module, "divide_exact", counting)
    total = sum_rational_forms(forms)
    assert len(divided) == division_count(f.denominators
                                          for f in forms) == 3
    assert sorted(divided) == sorted([l12.key, l12.key, l13.key])
    # three divisions leave the total exact through degree 4 - 3
    assert total.terms == {(1, 0, 0): R.one(),
                           (0, 0, 1): R.from_fraction(Fraction(-2, 3))}


def test_numeric_divide_reports_residual():
    NR = NumericRing(96)
    trunc = Truncation(3)
    t1 = series_variable(NR, ("t1", "t2"), trunc, "t1")
    t2 = series_variable(NR, ("t1", "t2"), trunc, "t2")
    l = LinearForm(NR, {"t1": 1, "t2": -1})
    residuals = []
    q = divide_exact(t1 * t1 - t2 * t2, l, residuals=residuals)
    assert residuals and residuals[0] < 1e-20
    assert abs(complex(q.coefficient((1, 0)))) - 1 < 1e-20


def test_numeric_forms_keyed_by_exact_coefficients():
    # the two t2 coefficients agree to 17 significant digits and round to
    # the same double, so a key read from the numeric values merges them
    NR = NumericRing(128)
    q1 = Fraction(123456789012345678, 10**17)
    q2 = Fraction(123456789012345679, 10**17)
    l1 = LinearForm(NR, {"t1": 1, "t2": q1})
    l2 = LinearForm(NR, {"t1": 1, "t2": q2})
    assert complex(NR.from_fraction(q1)) == complex(NR.from_fraction(q2))
    assert l1.key != l2.key
    scaled = LinearForm(NR, {"t1": 3, "t2": 3 * q1})
    assert scaled.key == l1.key
    # s1 s2 / l1 + s1 s2 / l2 = s2 + s1 only when the forms stay distinct
    trunc = Truncation(4)  # two divisions leave degrees <= 2 valid
    s1, s2 = (linear_series(l, NR, ("t1", "t2"), trunc) for l in (l1, l2))
    total = sum_rational_forms([RationalForm(s1 * s2, [l1]),
                                RationalForm(s1 * s2, [l2])])
    want = s1 + s2
    for e in set(total.terms) | set(want.terms):
        if sum(e) <= 2:
            assert abs(total.coefficient(e) - want.coefficient(e)) < 1e-30


def test_dump_format():
    s = var("t1") + one()
    lines = s.dump().splitlines()
    assert lines[0].startswith("(0, 0, 0) :")
    assert lines[1].startswith("(1, 0, 0) :")
