import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath.ctx_mp import MPContext

from latticesums.cyclotomic import CyclotomicField, ExactScalar
from reference import termpair_product

CTX = MPContext()
CTX.prec = 80


@pytest.mark.parametrize("N", [1, 2, 4, 12, 60, 360, 4620])
def test_zeta_powers_embed_and_multiply(N):
    F = CyclotomicField(N)
    for j in (0, 1, 2, 3, 5, 7, N // 2, N - 1):
        z = F.zeta_pow(j)
        want = cmath.exp(2j * cmath.pi * j / N)
        assert abs(complex(z.embed(CTX)) - want) < 1e-12
    a, b = F.zeta_pow(7), F.zeta_pow(11)
    assert a * b == F.zeta_pow(18)


def test_power_relation_reduction():
    F = CyclotomicField(12)
    z = F.zeta_pow(1)
    acc = F.one()
    for _ in range(6):
        acc = acc * z
    assert acc == F.from_fraction(-1)
    z3 = F.zeta_pow(4)
    assert (F.one() + z3 + z3 * z3).is_zero()


def test_zeta_poly_roundtrip():
    F = CyclotomicField(60)
    x = F.zeta_pow(7) * Fraction(2, 3) - F.zeta_pow(31) + F.from_fraction(5)
    back = F.zero()
    for (_, e), v in x.terms.items():
        back = back + F.zeta_pow(F.zeta_exponent(e)) * Fraction(v, x.den)
    assert back == x


@pytest.mark.parametrize("N,j", [(12, 2), (12, 3), (60, 7), (4620, 7),
                                 (4620, 2310), (420, 315), (924, 616),
                                 (4620, 3696), (1260, 1), (12, -5),
                                 (60, 127), (1260, -2519)])
def test_unity_minus_one_inverse(N, j, monkeypatch):
    # 1/(zeta^j - 1) is built in closed form whatever the basis form of
    # zeta^j (at N = 420, zeta^315 - 1 is -1 - zeta^105): never by the norm
    def no_norm(self, j):
        raise AssertionError("inverted through the Galois norm")

    monkeypatch.setattr(ExactScalar, "galois", no_norm)
    F = CyclotomicField(N)
    q = Fraction(j, N)
    x = F.root_minus_one_inverse(q)
    assert x * (F.root_of_unity(q) - F.one()) == F.one()


def test_generic_inverse_by_norm():
    F = CyclotomicField(60)
    g = F.zeta_pow(2) + F.zeta_pow(9) * Fraction(1, 2) + 3
    assert (g.inv() * g) == F.one()


def test_galois_is_field_automorphism():
    F = CyclotomicField(20)
    a = F.zeta_pow(3) + F.from_fraction(Fraction(1, 2))
    b = F.zeta_pow(7) - F.one()
    for j in (3, 7, 9):
        assert (a * b).galois(j) == a.galois(j) * b.galois(j)
        assert (a + b).galois(j) == a.galois(j) + b.galois(j)


@st.composite
def small_elements(draw):
    F = CyclotomicField(12)
    n = draw(st.integers(1, 3))
    out = F.zero()
    for _ in range(n):
        j = draw(st.integers(0, 11))
        num = draw(st.integers(-4, 4))
        den = draw(st.integers(1, 4))
        out = out + F.zeta_pow(j) * Fraction(num, den)
    return out


@settings(max_examples=60, deadline=None)
@given(small_elements(), small_elements(), small_elements())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    assert (a - a).is_zero()
    if not a.is_zero():
        assert a.inv() * a == CyclotomicField(12).one()


@settings(max_examples=40, deadline=None)
@given(small_elements(), small_elements())
def test_embed_is_homomorphic(a, b):
    ea, eb = a.embed(CTX), b.embed(CTX)
    assert abs(complex((a * b).embed(CTX) - ea * eb)) < 1e-17
    assert abs(complex((a + b).embed(CTX) - (ea + eb))) < 1e-17


@pytest.mark.parametrize("N", [4, 12, 60, 420, 1260, 21840])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_basis_product_matches_reduction(N, data):
    # the table entry is the product of the two monomials: distinct
    # exponents, each in its basis range, with coefficients +-1, that
    # embed at 120 bits to the product of the embedded monomials
    ctx = MPContext()
    ctx.prec = 120
    F = CyclotomicField(N)
    phis = [phi for (_, _, phi, _) in F.factors]
    ea, eb = (tuple(data.draw(st.integers(0, phi - 1)) for phi in phis)
              for _ in range(2))
    terms = F.basis_product(ea, eb)
    assert len({e for e, _ in terms}) == len(terms)
    assert all(0 <= x < phi for e, _ in terms for x, phi in zip(e, phis))
    assert all(m in (1, -1) for _, m in terms)
    got = ExactScalar(F, {(0, e): m for e, m in terms}).embed(ctx)
    want = ExactScalar(F, {(0, ea): 1}).embed(ctx) * \
        ExactScalar(F, {(0, eb): 1}).embed(ctx)
    assert abs(got - want) < ctx.mpf(2) ** -110


@pytest.mark.parametrize("N, q", [(4, Fraction(1, 3)), (12, Fraction(1, 8))])
def test_root_of_unity_outside_the_field_is_refused(N, q):
    with pytest.raises(ValueError, match=rf"^e\^\(2 pi i {q}\) does not "
                       rf"lie in Q\(zeta_{N}\)"):
        CyclotomicField(N).root_of_unity(q)


@pytest.mark.parametrize("q", [Fraction(0), Fraction(-3)])
def test_root_minus_one_inverse_of_an_integer_is_refused(q):
    with pytest.raises(ValueError, match=rf"^e\^\(2 pi i {q}\) - 1 is zero"):
        CyclotomicField(12).root_minus_one_inverse(q)


# 924 = 4 * 3 * 7 * 11: rows of one, two, six and ten terms
ONE_TERM_FIELDS = {N: CyclotomicField(N) for N in (4, 12, 60, 924)}


@st.composite
def _dense(draw, F):
    """A sum of up to four roots of unity with rational coefficients, at
    pi powers -2..2."""
    out = F.zero()
    for _ in range(draw(st.integers(1, 4))):
        c = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 6)))
        pi = ExactScalar(F, {(draw(st.integers(-2, 2)), F.zero_exps): 1})
        out = out + F.zeta_pow(draw(st.integers(0, F.N - 1))) * pi * c
    return out


@st.composite
def _one_term(draw, F):
    """c pi^k zeta^e, one basis monomial: a rational (k = 0, e = 0), a
    pure pi power (e = 0), a zeta-monomial with any basis exponents, or
    one at the top of every basis range, whose products leave the range
    of every nonzero exponent of the other operand and expand through the
    rows."""
    kind = draw(st.sampled_from(["rational", "pi", "zeta", "top"]))
    phis = [phi for (_, _, phi, _) in F.factors]
    k = 0 if kind == "rational" else draw(st.integers(-2, 2))
    if kind in ("rational", "pi"):
        e = F.zero_exps
    elif kind == "zeta":
        e = tuple(draw(st.integers(0, phi - 1)) for phi in phis)
    else:
        e = tuple(phi - 1 for phi in phis)
    c = Fraction(draw(st.integers(1, 12)) * draw(st.sampled_from([1, -1])),
                 draw(st.integers(1, 12)))
    return ExactScalar(F, {(k, e): c.numerator}, c.denominator)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_one_term_product_is_the_term_pair_product(data):
    # a one-term operand, on either side, takes the monomial path of
    # __mul__; its product equals the general double loop exactly, terms
    # and denominator, and a zero operand gives zero
    F = ONE_TERM_FIELDS[data.draw(st.sampled_from(sorted(ONE_TERM_FIELDS)))]
    x, m = data.draw(_dense(F)), data.draw(_one_term(F))
    want = termpair_product(x, m)
    for got in (x * m, m * x):
        assert (got.terms, got.den) == (want.terms, want.den)
    assert (m * m).terms == termpair_product(m, m).terms
    for got in (m * F.zero(), F.zero() * m):
        assert got.is_zero() and got.den == 1


@pytest.mark.parametrize("N", [12, 924])
def test_one_term_product_moves_through_the_rows(N):
    # the top basis monomial times zeta^(1, ..., 1) leaves the basis range
    # of every factor, so its rows expand (p - 1 terms for a factor p^a,
    # one for 4): more terms out than in
    F = ONE_TERM_FIELDS[N]
    top = ExactScalar(F, {(1, tuple(phi - 1 for (_, _, phi, _)
                                    in F.factors)): 3}, 5)
    ones = tuple(1 for _ in F.factors)
    x = F.one() + ExactScalar(F, {(0, ones): 2}, 7)
    got, want = top * x, termpair_product(x, top)
    assert len(got.terms) > len(x.terms)
    assert (got.terms, got.den) == (want.terms, want.den)
