import itertools
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath.ctx_mp import MPContext

from latticesums import series as series_module
from latticesums.errors import NonDivisible
from latticesums.genfun import lift_units, unit_parts
from latticesums.lattice import GaussianRational
from latticesums.scalar import ExactRing, NumericRing
from latticesums.series import (LinearForm, RationalForm, TruncatedSeries,
                                Truncation, coefficient_discrepancy,
                                divide_exact, division_count,
                                sum_rational_forms)
from reference import (form_constant, form_exp, form_power, one_times,
                       pi_pow, series_constant, series_variable,
                       sum_by_series_products, termwise_product,
                       with_truncation)

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
    q1 = with_truncation(q, Truncation(1))
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
    want = termwise_product(ring, [(a.terms, b.terms)], a.trunc)
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


MUL_RINGS = {N: ExactRing(N) for N in (4, 60, 2772)}


@pytest.mark.parametrize("mode", [4, 60, 2772, "numeric"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_mul_terms_is_the_scaled_sum_of_termwise_products(mode, data):
    # zero to three pairs and a series scaled by a rational, its
    # multiplier a one-term map as ``sum_rational_forms`` passes it (the
    # constant 1 alone among them), that series drawn past the truncation,
    # with and without a box, against one scalar product per term pair;
    # numeric mode multiplies the embedded exact series and is compared
    # with the exact sum
    ring = MUL_RINGS[2772 if mode == "numeric" else mode]
    box = data.draw(st.one_of(st.none(), st.tuples(st.integers(0, 3),
                                                   st.integers(0, 3))))
    trunc = Truncation(3, box)
    pairs = [(data.draw(exact_series(ring, trunc)).terms,
              data.draw(exact_series(ring, trunc)).terms)
             for _ in range(data.draw(st.integers(0, 3)))]
    scale = data.draw(st.sampled_from([1, Fraction(-3, 4), Fraction(5, 7)]))
    pairs.append(({(0, 0): ring.from_fraction(scale)},
                  data.draw(exact_series(ring, Truncation(4))).terms))
    want = termwise_product(ring, pairs, trunc)
    if mode != "numeric":
        got = ring.mul_terms(pairs, trunc)
        assert got == want
        for c in got.values():
            assert_canonical(c)
        return
    numeric = NumericRing(128)

    def embedded(terms):
        return {e: c.embed(numeric.ctx) for e, c in terms.items()}
    got = numeric.mul_terms([(embedded(a), embedded(b)) for a, b in pairs],
                            trunc)
    assert set(got) <= set(want)
    for e, c in want.items():
        ref = c.embed(numeric.ctx)
        assert abs(got.get(e, 0) - ref) <= 2.0 ** -100 * max(1, abs(ref))


@pytest.mark.parametrize("N", [4, 60, 2772])
def test_mul_terms_by_one_returns_the_term_map_as_it_is(N):
    # one pair whose first factor is the constant 1 is the second factor's
    # coefficients, each canonical as every product's; a root or a
    # rational in its place, or a second pair, is the termwise product
    ring = MUL_RINGS[N]
    trunc = Truncation(3)
    grid = {(0, 0): ring.from_fraction(Fraction(2, 3)),
            (1, 2): ring.field.zeta_pow(1) * Fraction(1, 5),
            (2, 0): pi_pow(ring, 1) - ring.one()}
    one = {(0, 0): ring.one()}
    got = ring.mul_terms([(one, grid)], trunc)
    assert got == grid
    for c in got.values():
        assert_canonical(c)
    # and truncated, as every product is
    got = ring.mul_terms([(one, {**grid, (2, 2): ring.one()})], trunc)
    assert got == grid
    root = {(0, 0): ring.field.zeta_pow(N // 4 + 1)}
    half = {(0, 0): ring.from_fraction(Fraction(1, 2))}
    for pairs in ([(half, grid)], [(root, grid)], [(one, grid)] * 2):
        assert ring.mul_terms(pairs, trunc) \
            == termwise_product(ring, pairs, trunc)


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
    assert (a * b).terms == want \
        == termwise_product(ring, [(a.terms, b.terms)], trunc)

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
        l1 = LinearForm({"t1": 1})
        l2 = LinearForm({"t2": 1})
        l12 = LinearForm({"t1": 1, "t2": 1})
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
    e = form_exp(LinearForm({"t": 1}), R, ("t",), tr)
    em = form_exp(LinearForm({"t": -1}), R, ("t",), tr)
    assert e.invert_unit().terms == em.terms


def test_invert_unit_rejects_zero_constant():
    with pytest.raises(NonDivisible):
        var("t1").invert_unit()


def test_divide_exact_examples():
    t1, t2 = var("t1"), var("t2")
    l = LinearForm({"t1": 1, "t2": -1})
    q = divide_exact(t1 * t1 - t2 * t2, l)
    assert q.terms == (t1 + t2).terms
    l2 = LinearForm({"t1": 1, "t2": 2})
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
    return s, LinearForm(coeffs)


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
            LinearForm(coeffs))
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
    s = series_constant(ring, vars, trunc, form_constant(form, ring))
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
    return LinearForm(rational_coeffs(draw), c)


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
    return LinearForm(rational_coeffs(draw), c)


def _exp_reference(form, ring, vars, trunc):
    """e^(-2 pi i c) sum_n L^n / n! from repeated series products."""
    pref = ring.root_of_unity(-form.c) if ring.exact \
        else ring.ctx.exp(form_constant(form, ring))
    lin = LinearForm(form.coeffs)
    out = TruncatedSeries.one(ring, vars, trunc)
    for n in range(1, trunc.total + 1):
        out = out + _power(linear_series(lin, ring, vars, trunc), n) \
            .scalar_mul(ring.from_fraction(Fraction(1, math.factorial(n))))
    return out.scalar_mul(pref)


def _expansion_and_reference(data, ring):
    """power(m) of a random form (``reference.form_power``), or its
    exponential from the closed-form reference (``reference.form_exp``),
    with its value from repeated series products.  The unit inverses are
    checked against
    ``invert_unit`` in ``tests/test_genfun.py`` (``unit_parts``)."""
    form = data.draw(rational_forms(ring))
    trunc = Truncation(data.draw(st.integers(0, 5)))
    if data.draw(st.booleans()):
        m = data.draw(st.integers(0, 4))
        return (form_power(form, ring, VARS, trunc, m),
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
    got = LinearForm(coeffs, c)
    want = LinearForm(coeffs, Fraction(c))
    assert got.singular == want.singular == (c == 0)
    assert form_exp(got, ring, VARS, tr).terms == \
        form_exp(want, ring, VARS, tr).terms

    def lifted(factors, exponent=None):
        return lift_units(ring, VARS, tr, [unit_parts(
            ring, factors, VARS, tr, exponent,
            times=one_times(ring, VARS))]).terms

    assert lifted([], got) == lifted([], want)
    if c == 0:
        with pytest.raises(NonDivisible):
            unit_parts(ring, [(got, 2)], VARS, tr)
    else:
        assert lifted([(got, 2)]) == lifted([(want, 2)])


def test_partial_fraction_identity():
    t1, t2 = var("t1"), var("t2")
    f1 = RationalForm(t1, [LinearForm({"t1": 1, "t2": -1})])
    f2 = RationalForm(t2, [LinearForm({"t2": 1, "t1": -1})])
    tot = sum_rational_forms([f1, f2])
    assert tot.terms == one().terms


def test_single_form_without_denominators():
    s = var("t1") * var("t2")
    assert sum_rational_forms([RationalForm(s, [])]).terms == s.terms


def test_sum_rational_forms_permutation_invariant():
    t1, t2, t3 = var("t1"), var("t2"), var("t3")
    l12 = LinearForm({"t1": 1, "t2": -1})
    l13 = LinearForm({"t1": 1, "t3": -1})
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
    l12 = LinearForm({"t1": 1, "t2": -1})
    scaled = LinearForm({"t1": Fraction(-3, 2), "t2": Fraction(3, 2)})
    l13 = LinearForm({"t1": 1, "t3": -1})
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
    l12 = LinearForm({"t1": 1, "t2": -1})
    scaled = LinearForm({"t1": Fraction(-3, 2), "t2": Fraction(3, 2)})
    l13 = LinearForm({"t1": 1, "t3": -1})
    # l12^2 t3 / (l12 * scaled) + l13 t1 / l13 = -2/3 t3 + t1
    forms = [RationalForm(form_power(l12, R, VARS, trunc, 2) * var("t3"),
                          [l12, scaled]),
             RationalForm(form_power(l13, R, VARS, trunc, 1) * var("t1"),
                          [l13])]
    divided = []
    real = series_module.divide_exact

    def counting(s, form):
        divided.append(form.key)
        return real(s, form)

    monkeypatch.setattr(series_module, "divide_exact", counting)
    total = sum_rational_forms(forms)
    assert len(divided) == division_count(f.denominators
                                          for f in forms) == 3
    assert sorted(divided) == sorted([l12.key, l12.key, l13.key])
    # three divisions leave the total exact through degree 4 - 3
    assert total.terms == {(1, 0, 0): R.one(),
                           (0, 0, 1): R.from_fraction(Fraction(-2, 3))}


def _drawn_series(ring, trunc, seed, top=3):
    """A fixed series of degree at most `top` in VARS, inside `trunc`:
    coefficients q * pi^k * zeta_12^j in the exact ring, their values in
    the numeric one."""
    rng = random.Random(seed)
    exact = EXACT_RINGS[12]
    terms = {}
    for e in itertools.product(range(top + 1), repeat=len(VARS)):
        if sum(e) > top or not trunc.keeps(e) or rng.random() < 0.3:
            continue
        c = exact.field.zeta_pow(rng.randrange(12)) \
            * pi_pow(exact, rng.randrange(-1, 2)) \
            * Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 6))
        terms[e] = c if ring.exact else c.embed(ring.ctx)
    return TruncatedSeries(ring, VARS, trunc, terms)


@pytest.mark.parametrize("mode", ["exact", "numeric"])
def test_sum_rational_forms_matches_series_products(mode):
    # numerators lacking representatives, one representative twice, scaled
    # denominators: the integer products equal one series product per
    # missing representative (exactly, or within 2^-100 relative), and the
    # sum is P through the working order less the four divisions
    ring = EXACT_RINGS[12] if mode == "exact" else NumericRing(128)
    trunc = Truncation(7)
    l1 = LinearForm({"t1": 1, "t2": -1})
    l1s = LinearForm({"t1": Fraction(-3, 2), "t2": Fraction(3, 2)})
    l2 = LinearForm({"t2": 1, "t3": Fraction(2, 3)})
    l3 = LinearForm({"t1": 3, "t3": -1})
    assert [d.pivot for d in (l1, l2, l3)] == ["t1", "t2", "t1"]

    def times(x, *forms):
        for d in forms:
            x = x * form_power(d, ring, VARS, trunc, 1)
        return x

    P, M2, M3, N4 = (_drawn_series(ring, trunc, seed) for seed in range(4))
    forms = [RationalForm(times(P - M2 - M3 - N4, l1, l1s, l2),
                          [l1, l1s, l2]),
             RationalForm(times(M2, l1s), [l1s]),
             RationalForm(times(M3, l3), [l3]),
             RationalForm(N4, [])]
    assert division_count(f.denominators for f in forms) == 4
    got = sum_rational_forms(forms)
    want = sum_by_series_products(forms)
    assert len(want.terms) >= 10
    if ring.exact:
        assert got.terms == want.terms
    else:
        assert set(got.terms) == set(want.terms)
        for e, w in want.terms.items():
            assert abs(got.terms[e] - w) <= 2.0 ** -100 * abs(w), e
    for e in set(got.terms) | set(P.terms):
        if sum(e) <= 7 - 4:
            diff = got.coefficient(e) - P.coefficient(e)
            assert ring.is_zero(diff) if ring.exact else \
                abs(diff) <= 2.0 ** -100 * abs(P.coefficient(e)), e


def test_numeric_divide_matches_the_exact_quotient():
    # (t1^2 - t2^2 + t1 t2 t3) / (t1 - t2), its numerator rounded at 96
    # bits: the numeric remainder passes the tolerance, and the quotient
    # is the exact one within 2^-90
    NR = NumericRing(96)
    trunc = Truncation(3)
    vars = ("t1", "t2", "t3")
    l = LinearForm({"t1": 1, "t2": -1})
    third = Fraction(1, 3)
    numerators = {(2, 0, 0): 1, (0, 2, 0): -1, (1, 1, 1): third,
                  (0, 2, 1): -third}
    exact = divide_exact(TruncatedSeries(R, vars, trunc, {
        e: R.from_fraction(q) for e, q in numerators.items()}), l)
    got = divide_exact(TruncatedSeries(NR, vars, trunc, {
        e: NR.from_fraction(q) for e, q in numerators.items()}), l)
    assert exact.terms == {(1, 0, 0): R.one(), (0, 1, 0): R.one(),
                           (0, 1, 1): R.from_fraction(third)}
    assert set(got.terms) == set(exact.terms)
    for e, c in exact.terms.items():
        assert abs(got.terms[e] - c.embed(NR.ctx)) <= 2.0 ** -90, e


def test_numeric_forms_keyed_by_exact_coefficients():
    # the two t2 coefficients agree to 17 significant digits and round to
    # the same double, so a key read from the numeric values merges them
    NR = NumericRing(128)
    q1 = Fraction(123456789012345678, 10**17)
    q2 = Fraction(123456789012345679, 10**17)
    l1 = LinearForm({"t1": 1, "t2": q1})
    l2 = LinearForm({"t1": 1, "t2": q2})
    assert complex(NR.from_fraction(q1)) == complex(NR.from_fraction(q2))
    assert l1.key != l2.key
    scaled = LinearForm({"t1": 3, "t2": 3 * q1})
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


def test_coefficient_discrepancy_counts_or_measures():
    ring = EXACT_RINGS[4]
    half, third = ring.from_fraction(Fraction(1, 2)), \
        ring.from_fraction(Fraction(1, 3))
    assert coefficient_discrepancy(ring, []) == 0
    assert coefficient_discrepancy(ring, [(half, half)]) == 0
    assert coefficient_discrepancy(
        ring, [(half, third), (half, half), (third, half)]) == 2
    # numeric: the largest difference, seen below double precision
    one = NR128.one()
    tiny = NR128.from_fraction(Fraction(1, 2 ** 80))
    assert coefficient_discrepancy(NR128, []) == 0.0
    assert coefficient_discrepancy(NR128, [(one, one)]) == 0.0
    assert coefficient_discrepancy(
        NR128, [(one + tiny, one), (one, one + 2 * tiny)]) == 2.0 ** -79


def _series(vars):
    return TruncatedSeries(R, vars, Truncation(2))


@pytest.mark.parametrize("call, start", [
    (lambda: divide_exact(_series(VARS), LinearForm({"t1": Fraction(1)},
                                                    Fraction(1))),
     "divide_exact needs a constant-free linear form"),
    (lambda: sum_rational_forms([]), "no forms to sum"),
    (lambda: sum_rational_forms([RationalForm(_series(VARS), []),
                                 RationalForm(_series(VARS[:2]), [])]),
     "forms must share variables and truncation"),
    (lambda: sum_rational_forms([RationalForm(
        _series(VARS), [LinearForm({"t1": Fraction(1)}, Fraction(1))])]),
     "a denominator must be a singular form with a linear part"),
    (lambda: _series(VARS) + _series(VARS[:2]), "variable sets differ"),
], ids=["divide_by_a_unit", "no_forms", "mismatched_variables",
        "unit_denominator", "add_other_variables"])
def test_series_refusals(call, start):
    with pytest.raises(ValueError, match=f"^{re.escape(start)}"):
        call()
